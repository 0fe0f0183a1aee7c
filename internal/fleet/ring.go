package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over peer indices. Each peer owns
// vnodes points on a 64-bit circle; a key is placed on the first point
// clockwise from its own hash. Consistency is the property the fleet
// needs for its cache affinity: adding or removing one peer moves only
// the keys that peer owned, so the rest of the fleet's tunecaches stay
// warm through membership changes.
type Ring struct {
	points []ringPoint // sorted by hash
	peers  int
}

type ringPoint struct {
	hash uint64
	peer int
}

// NewRing builds a ring over peers 0..n-1, identified by name (names
// must be distinct: the hash of name#vnode is the peer's ring identity,
// stable across coordinator restarts and peer reordering).
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one peer")
	}
	if vnodes < 1 {
		vnodes = 1
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{points: make([]ringPoint, 0, len(names)*vnodes), peers: len(names)}
	for i, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate peer name %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", name, v)), peer: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// ringHash maps a string onto the circle.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Peers returns the peer count.
func (r *Ring) Peers() int { return r.peers }

// Place returns every peer in preference order for key: the owner first,
// then each subsequent distinct peer walking the ring clockwise. The
// full order is the re-placement sequence — when the owner dies the job
// moves to the next entry, deterministically, so re-placed repeats of
// the same problem all land on the same fallback peer.
func (r *Ring) Place(key string) []int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	order := make([]int, 0, r.peers)
	seen := make(map[int]bool, r.peers)
	for k := 0; k < len(r.points) && len(order) < r.peers; k++ {
		p := r.points[(i+k)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			order = append(order, p)
		}
	}
	return order
}
