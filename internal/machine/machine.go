// Package machine describes the node architectures of the paper's
// Section VI-A evaluation: a 24-core AMD Magny-Cours (Cray XT6m node), a
// 20-core Intel Ivy Bridge (Atlantis), a 16-core Intel Sandy Bridge (Cab),
// and the 4-core Ivy Bridge desktop used for hardware-counter bandwidth
// measurements.
//
// The specs drive two substitutes for the paper's testbeds (this
// reproduction runs on commodity hardware without NUMA or SIMD control):
// the roofline-style scaling model in internal/perfmodel and the memory
// hierarchy simulated by internal/cachesim.
package machine

import "fmt"

// Cache describes one cache level.
type Cache struct {
	Name      string
	SizeBytes int64
	Assoc     int // ways; 0 means fully associative
	LineBytes int
	// PerCore is true for private caches; false means shared by all cores
	// of a socket.
	PerCore bool
}

// Machine describes one evaluation node.
type Machine struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int // 2 where the paper exercises hyper-threading
	GHz            float64
	// BWPerSocketGBs is the sustainable memory bandwidth per socket in
	// GB/s (the paper quotes aggregate system bandwidth; divided evenly).
	BWPerSocketGBs float64
	// SingleThreadBWGBs caps how much bandwidth one thread can draw — the
	// desktop measurements show a single thread reaching 18.3 GB/s of the
	// 21 GB/s system bandwidth, while server uncore latencies hold a
	// thread to a smaller fraction.
	SingleThreadBWGBs float64
	// SustainedBWFraction scales the quoted peak bandwidth to what the
	// exemplar's many concurrent read/write streams sustain (high on the
	// desktop per the paper's VTune data, STREAM-like ~55% on the servers).
	SustainedBWFraction float64
	// KernelFlopsPerCycle calibrates the exemplar's effective scalar
	// throughput per core (counted flops per cycle, absorbing address
	// arithmetic, load latency and the lack of SIMD in the model). Chosen
	// so single-thread baseline times land near the paper's Figures 2-4.
	KernelFlopsPerCycle float64
	L1D, L2, L3         Cache
}

// Cores returns the machine's physical core count.
func (m Machine) Cores() int { return m.Sockets * m.CoresPerSocket }

// MaxThreads returns the maximum hardware thread count the paper sweeps on
// this machine.
func (m Machine) MaxThreads() int {
	t := m.ThreadsPerCore
	if t < 1 {
		t = 1
	}
	return m.Cores() * t
}

// TotalBWGBs returns the aggregate system bandwidth.
func (m Machine) TotalBWGBs() float64 { return float64(m.Sockets) * m.BWPerSocketGBs }

// SocketsUsed returns how many sockets a compact thread placement touches:
// threads fill cores socket by socket, and hyper-threads share cores
// rather than spilling onto new sockets.
func (m Machine) SocketsUsed(threads int) int {
	if threads < 1 {
		threads = 1
	}
	if threads > m.Cores() {
		threads = m.Cores()
	}
	s := (threads + m.CoresPerSocket - 1) / m.CoresPerSocket
	if s > m.Sockets {
		s = m.Sockets
	}
	return s
}

// Validate checks the spec for internal consistency.
func (m Machine) Validate() error {
	if m.Sockets < 1 || m.CoresPerSocket < 1 || m.GHz <= 0 ||
		m.BWPerSocketGBs <= 0 || m.KernelFlopsPerCycle <= 0 ||
		m.SustainedBWFraction <= 0 || m.SustainedBWFraction > 1 {
		return fmt.Errorf("machine %q: non-positive core spec", m.Name)
	}
	for _, c := range []Cache{m.L1D, m.L2, m.L3} {
		if c.SizeBytes <= 0 || c.LineBytes <= 0 {
			return fmt.Errorf("machine %q: bad cache %q", m.Name, c.Name)
		}
	}
	if m.L1D.SizeBytes > m.L2.SizeBytes || m.L2.SizeBytes > m.L3.SizeBytes {
		return fmt.Errorf("machine %q: cache sizes not increasing", m.Name)
	}
	return nil
}

const kib, mib = int64(1024), int64(1024 * 1024)

// MagnyCours returns the 24-core Cray XT6m node: two 12-core AMD
// Magny-Cours at 1.90 GHz, 85.3 GB/s aggregate, 64 KB L1D, 512 KB L2,
// 12 MB shared L3 per socket.
func MagnyCours() Machine {
	return Machine{
		Name:                "AMD Magny-Cours (Cray XT6m, 24 cores)",
		Sockets:             2,
		CoresPerSocket:      12,
		ThreadsPerCore:      1,
		GHz:                 1.90,
		BWPerSocketGBs:      85.3 / 2,
		SingleThreadBWGBs:   6.0,
		SustainedBWFraction: 0.55,
		KernelFlopsPerCycle: 0.26,
		L1D:                 Cache{Name: "L1D", SizeBytes: 64 * kib, Assoc: 2, LineBytes: 64, PerCore: true},
		L2:                  Cache{Name: "L2", SizeBytes: 512 * kib, Assoc: 16, LineBytes: 64, PerCore: true},
		L3:                  Cache{Name: "L3", SizeBytes: 12 * mib, Assoc: 16, LineBytes: 64},
	}
}

// IvyBridge20 returns Atlantis: two 10-core Intel Ivy Bridge E5-2670v2 at
// 2.50 GHz with hyper-threading, 51.2 GB/s per socket, 32 KB L1D, 256 KB
// L2, 25 MB shared L3 per socket.
func IvyBridge20() Machine {
	return Machine{
		Name:                "Intel Ivy Bridge (Atlantis, 20 cores)",
		Sockets:             2,
		CoresPerSocket:      10,
		ThreadsPerCore:      2,
		GHz:                 2.50,
		BWPerSocketGBs:      51.2,
		SingleThreadBWGBs:   9.0,
		SustainedBWFraction: 0.55,
		KernelFlopsPerCycle: 0.69,
		L1D:                 Cache{Name: "L1D", SizeBytes: 32 * kib, Assoc: 8, LineBytes: 64, PerCore: true},
		L2:                  Cache{Name: "L2", SizeBytes: 256 * kib, Assoc: 8, LineBytes: 64, PerCore: true},
		L3:                  Cache{Name: "L3", SizeBytes: 25 * mib, Assoc: 20, LineBytes: 64},
	}
}

// SandyBridge16 returns Cab: two 8-core Intel Sandy Bridge E5-2670 at
// 2.6 GHz, 51.2 GB/s per socket, 20 MB shared L3 per socket.
func SandyBridge16() Machine {
	return Machine{
		Name:                "Intel Sandy Bridge (Cab, 16 cores)",
		Sockets:             2,
		CoresPerSocket:      8,
		ThreadsPerCore:      1,
		GHz:                 2.60,
		BWPerSocketGBs:      51.2,
		SingleThreadBWGBs:   8.5,
		SustainedBWFraction: 0.55,
		KernelFlopsPerCycle: 0.63,
		L1D:                 Cache{Name: "L1D", SizeBytes: 32 * kib, Assoc: 8, LineBytes: 64, PerCore: true},
		L2:                  Cache{Name: "L2", SizeBytes: 256 * kib, Assoc: 8, LineBytes: 64, PerCore: true},
		L3:                  Cache{Name: "L3", SizeBytes: 20 * mib, Assoc: 20, LineBytes: 64},
	}
}

// IvyBridgeDesktop returns the single-socket 4-core i5-3570K (3.40 GHz,
// 21.0 GB/s, 6 MB shared L3) used for the bandwidth measurements of
// Section VI-B.
func IvyBridgeDesktop() Machine {
	return Machine{
		Name:                "Intel Ivy Bridge desktop (i5-3570K, 4 cores)",
		Sockets:             1,
		CoresPerSocket:      4,
		ThreadsPerCore:      1,
		GHz:                 3.40,
		BWPerSocketGBs:      21.0,
		SingleThreadBWGBs:   18.5,
		SustainedBWFraction: 0.90,
		KernelFlopsPerCycle: 0.75,
		L1D:                 Cache{Name: "L1D", SizeBytes: 32 * kib, Assoc: 8, LineBytes: 64, PerCore: true},
		L2:                  Cache{Name: "L2", SizeBytes: 256 * kib, Assoc: 8, LineBytes: 64, PerCore: true},
		L3:                  Cache{Name: "L3", SizeBytes: 6 * mib, Assoc: 12, LineBytes: 64},
	}
}

// All returns the four machines of the study.
func All() []Machine {
	return []Machine{MagnyCours(), IvyBridge20(), SandyBridge16(), IvyBridgeDesktop()}
}

// ByName returns the machine whose name contains the (case-sensitive)
// substring key, e.g. "Magny", "Ivy Bridge (Atlantis", "Sandy", "desktop".
func ByName(key string) (Machine, error) {
	var found []Machine
	for _, m := range All() {
		if contains(m.Name, key) {
			found = append(found, m)
		}
	}
	if len(found) == 1 {
		return found[0], nil
	}
	return Machine{}, fmt.Errorf("machine: %d matches for %q", len(found), key)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// ThreadSweep returns the thread counts the paper plots for this machine
// (powers of two up to the core count, the core count itself, and the
// hyper-threaded maximum where applicable).
func (m Machine) ThreadSweep() []int {
	var ts []int
	for p := 1; p < m.Cores(); p *= 2 {
		ts = append(ts, p)
	}
	last := ts[len(ts)-1]
	// The paper's Sandy Bridge sweep inserts 12 between 8 and 16.
	if m.Cores() == 16 && last == 8 {
		ts = append(ts, 12)
	}
	ts = append(ts, m.Cores())
	if m.MaxThreads() > m.Cores() {
		ts = append(ts, m.MaxThreads())
	}
	return ts
}
