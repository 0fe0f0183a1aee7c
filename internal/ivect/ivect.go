// Package ivect provides the 3-D integer vector used to index structured
// grids. It mirrors the IntVect abstraction found in block-structured PDE
// frameworks such as Chombo: a point in the integer lattice Z^3 that names a
// cell, a face, or a node of a structured grid.
//
// The space dimension is fixed at three, matching the paper's exemplar,
// which is compiled for SpaceDim = 3.
package ivect

import "fmt"

// SpaceDim is the number of spatial dimensions. The exemplar in the paper is
// compiled for three dimensions; all index arithmetic in this module assumes
// it.
const SpaceDim = 3

// IntVect is a point in the 3-D integer lattice. The zero value is the
// origin.
type IntVect [SpaceDim]int

// New returns the IntVect (x, y, z).
func New(x, y, z int) IntVect { return IntVect{x, y, z} }

// Unit returns the unit vector e_d in direction d (0 = x, 1 = y, 2 = z).
// It panics if d is out of range, since a bad direction is always a
// programming error in stencil code.
func Unit(d int) IntVect {
	var v IntVect
	v[mustDir(d)] = 1
	return v
}

// Uniform returns (s, s, s).
func Uniform(s int) IntVect { return IntVect{s, s, s} }

// Zero is the origin.
var Zero = IntVect{}

// Ones is (1, 1, 1).
var Ones = IntVect{1, 1, 1}

// mustDir returns d after checking it names a direction. The panic lives
// out of line in badDir so that Unit, Shift and With stay within the
// inlining budget: they sit in the index arithmetic of every executor.
func mustDir(d int) int {
	if uint(d) >= SpaceDim {
		badDir(d)
	}
	return d
}

//go:noinline
func badDir(d int) {
	panic(fmt.Sprintf("ivect: direction %d out of range [0,%d)", d, SpaceDim))
}

// Add returns v + w componentwise.
func (v IntVect) Add(w IntVect) IntVect {
	return IntVect{v[0] + w[0], v[1] + w[1], v[2] + w[2]}
}

// Sub returns v - w componentwise.
func (v IntVect) Sub(w IntVect) IntVect {
	return IntVect{v[0] - w[0], v[1] - w[1], v[2] - w[2]}
}

// Neg returns -v.
func (v IntVect) Neg() IntVect { return IntVect{-v[0], -v[1], -v[2]} }

// Mul returns the componentwise (Hadamard) product v*w.
func (v IntVect) Mul(w IntVect) IntVect {
	return IntVect{v[0] * w[0], v[1] * w[1], v[2] * w[2]}
}

// Shift returns v displaced by s cells in direction d.
func (v IntVect) Shift(d, s int) IntVect {
	v[mustDir(d)] += s
	return v
}

// With returns v with component d replaced by x.
func (v IntVect) With(d, x int) IntVect {
	v[mustDir(d)] = x
	return v
}

// Min returns the componentwise minimum of v and w.
func (v IntVect) Min(w IntVect) IntVect {
	return IntVect{min(v[0], w[0]), min(v[1], w[1]), min(v[2], w[2])}
}

// Max returns the componentwise maximum of v and w.
func (v IntVect) Max(w IntVect) IntVect {
	return IntVect{max(v[0], w[0]), max(v[1], w[1]), max(v[2], w[2])}
}

// AllLE reports whether every component of v is <= the matching component of
// w. This is the partial order used for box containment.
func (v IntVect) AllLE(w IntVect) bool {
	return v[0] <= w[0] && v[1] <= w[1] && v[2] <= w[2]
}

// AllLT reports whether every component of v is < the matching component of
// w.
func (v IntVect) AllLT(w IntVect) bool {
	return v[0] < w[0] && v[1] < w[1] && v[2] < w[2]
}

// AllGE reports whether every component of v is >= the matching component of
// w.
func (v IntVect) AllGE(w IntVect) bool { return w.AllLE(v) }

// LexLess reports whether v precedes w in lexicographic order with z the
// most significant component and x the least. This matches column-major
// (x unit-stride) storage order: LexLess agrees with flat-offset order
// inside any box.
func (v IntVect) LexLess(w IntVect) bool {
	if v[2] != w[2] {
		return v[2] < w[2]
	}
	if v[1] != w[1] {
		return v[1] < w[1]
	}
	return v[0] < w[0]
}

// Sum returns v[0] + v[1] + v[2]. The sum of a tile coordinate is its
// wavefront (anti-diagonal) number in the tiled-wavefront schedules.
func (v IntVect) Sum() int { return v[0] + v[1] + v[2] }

// Prod returns v[0] * v[1] * v[2]. The product of a box's size vector is its
// volume in cells.
func (v IntVect) Prod() int { return v[0] * v[1] * v[2] }

// MaxComp returns the largest component.
func (v IntVect) MaxComp() int { return max(v[0], max(v[1], v[2])) }

// MinComp returns the smallest component.
func (v IntVect) MinComp() int { return min(v[0], min(v[1], v[2])) }

// Mod returns v modulo w componentwise with a result in [0, w) for positive
// w, i.e. Euclidean remainder. Used for periodic index wrapping.
func (v IntVect) Mod(w IntVect) IntVect {
	return IntVect{eucMod(v[0], w[0]), eucMod(v[1], w[1]), eucMod(v[2], w[2])}
}

func eucMod(a, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("ivect: modulus %d must be positive", b))
	}
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// String formats v as "(x,y,z)".
func (v IntVect) String() string {
	return fmt.Sprintf("(%d,%d,%d)", v[0], v[1], v[2])
}
