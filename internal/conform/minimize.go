package conform

// Minimize greedily shrinks a failing single-box case to a small
// reproducer: it repeatedly tries cheaper candidate cases (smaller
// boxes, origin corners, no padding, one thread, cold arenas) and keeps
// any candidate on which the runner still diverges. The returned
// divergence is the one observed on the minimized case, so its Error()
// line is the minimized repro. If c does not actually fail, Minimize
// returns (c.Normalized(), nil).
//
// Shrinking keeps the seed fixed — the initial data changes shape with
// the geometry but stays deterministic, so the repro line replays.
func Minimize(r Runner, c Case, maxULP uint64) (Case, *Divergence) {
	return minimize(c, Case.Normalized, shrinkCase, func(cc Case) *Divergence { return CheckBox(r, cc, maxULP) })
}

// minimize is the greedy shrink loop every minimizer shares: normalize c,
// and while some shrink candidate still fails check, move to the first
// such candidate (normalized). Only the case type, its candidate list
// and the failing-check predicate differ between Minimize,
// MinimizePeriodic, MinimizeLevel and MinimizeDist. If c does not fail,
// it returns (normalize(c), nil).
func minimize[C comparable](c C, normalize func(C) C, shrink func(C) []C, check func(C) *Divergence) (C, *Divergence) {
	c = normalize(c)
	dv := check(c)
	if dv == nil {
		return c, nil
	}
	for improved := true; improved; {
		improved = false
		for _, cand := range shrink(c) {
			if cdv := check(cand); cdv != nil {
				c, dv = normalize(cand), cdv
				improved = true
				break
			}
		}
	}
	return c, dv
}

// shrinkCase proposes strictly simpler variants of c, cheapest-looking
// reductions first. Every candidate differs from c (after normalization
// both are in range, so the loop in Minimize terminates: each accepted
// step reduces a bounded non-negative measure).
func shrinkCase(c Case) []Case {
	var out []Case
	add := func(n Case) {
		if n != c {
			out = append(out, n)
		}
	}
	for d := 0; d < 3; d++ {
		if c.Size[d] > 1 {
			n := c
			n.Size[d] = c.Size[d] / 2
			add(n)
			n = c
			n.Size[d]--
			add(n)
		}
		if c.Lo[d] != 0 {
			n := c
			n.Lo[d] = 0
			add(n)
			n = c
			n.Lo[d] = c.Lo[d] / 2
			add(n)
		}
	}
	if c.GhostPad > 0 {
		n := c
		n.GhostPad = 0
		add(n)
	}
	if c.OutPad > 0 {
		n := c
		n.OutPad = 0
		add(n)
	}
	if c.Threads > 1 {
		n := c
		n.Threads = 1
		add(n)
	}
	if c.Warm {
		n := c
		n.Warm = false
		add(n)
	}
	return out
}

// MinimizeLevel is Minimize for multi-box level cases: it shrinks the
// domain, grows boxes toward a single-box layout, drops threads and
// periodic directions, keeping any candidate that still diverges.
func MinimizeLevel(r Runner, lc LevelCase, maxULP uint64) (LevelCase, *Divergence) {
	return minimize(lc, LevelCase.Normalized, shrinkLevelCase, func(c LevelCase) *Divergence { return CheckLevel(r, c, maxULP) })
}

func shrinkLevelCase(lc LevelCase) []LevelCase {
	var out []LevelCase
	add := func(n LevelCase) {
		if n != lc {
			out = append(out, n)
		}
	}
	for d := 0; d < 3; d++ {
		if lc.DomainSize[d] > minDomainEdge {
			n := lc
			n.DomainSize[d] = max(minDomainEdge, lc.DomainSize[d]/2)
			add(n)
			n = lc
			n.DomainSize[d]--
			add(n)
		}
		if lc.Periodic[d] {
			n := lc
			n.Periodic[d] = false
			add(n)
		}
	}
	if lc.BoxSize < maxLevelBox {
		// Larger boxes only — fewer boxes is the simpler repro, and a
		// monotone direction keeps the greedy loop terminating.
		n := lc
		n.BoxSize = maxLevelBox
		add(n)
		n = lc
		n.BoxSize++
		add(n)
	}
	if lc.Threads > 1 {
		n := lc
		n.Threads = 1
		add(n)
	}
	return out
}
