// Package fleet shards the stencilserved service across a mesh of
// peers: the same balancing problem the paper studies per-core — and
// internal/dist solves per-rank — one level up, where the units are
// whole solve and autotune jobs and the "locality" being preserved is a
// peer's warm tunecache and scratch arenas.
//
// A Coordinator places each request on a peer chosen by consistent hash
// of the problem fingerprint, so identical problems land on the same
// peer (its autotune cache and arenas stay hot) while the ring spreads
// distinct problems across the fleet. Peers are probed for health;
// placement walks the ring past unhealthy peers; and a peer dying
// mid-job re-places the job on the next ring candidate — degraded, never
// dropped. Failures reuse internal/dist's typed failure model: every
// error wraps dist.ErrPeerDown or dist.ErrTimeout inside a *PeerError
// carrying the peer and operation, so callers errors.Is/As exactly as
// they do on rank failures.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"stencilsched/internal/dist"
)

// Sentinel failure classes, shared with the rank mesh: a dead service
// peer and a dead rank are the same condition at different granularity.
var (
	ErrPeerDown = dist.ErrPeerDown
	ErrTimeout  = dist.ErrTimeout
)

// PeerError is the typed failure a fleet operation surfaces: which peer,
// during which operation ("submit", "poll", "cancel", "probe", "cache"),
// wrapping the underlying cause for errors.Is.
type PeerError struct {
	Peer string
	Op   string
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("fleet: peer %s %s failed: %v", e.Peer, e.Op, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// RequestError is a permanent, client-caused failure: the peer answered
// with a 4xx. Re-placing cannot help (every peer validates identically),
// so the coordinator relays the status to the client instead.
type RequestError struct {
	Peer   string
	Status int
	Body   string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("fleet: peer %s rejected request: status %d: %s", e.Peer, e.Status, e.Body)
}

// RemoteJobError is a job that ran to a failed terminal state on a live
// peer. Like RequestError it is permanent: the job's own fn failed, and
// it would fail identically anywhere.
type RemoteJobError struct {
	Peer    string
	JobID   string
	Message string
}

func (e *RemoteJobError) Error() string {
	return fmt.Sprintf("fleet: job %s failed on peer %s: %s", e.JobID, e.Peer, e.Message)
}

// Peer names one stencilserved instance.
type Peer struct {
	Name string `json:"name"` // stable identity hashed onto the ring
	URL  string `json:"url"`  // base URL, e.g. http://10.0.0.7:8754
}

// Config sizes a Coordinator.
type Config struct {
	// Peers is the fleet membership (fixed for the coordinator's
	// lifetime; at least one).
	Peers []Peer
	// ProbeInterval is the health-probe period. Zero defaults to 1s;
	// negative disables probing (placement then trusts the last state,
	// which starts healthy).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe. Zero defaults to 2s. It is
	// also how long one look at a placed job waits on the peer for the
	// job to settle; that look's deadline is twice as long, so a peer that
	// stops answering surfaces as ErrTimeout and the job is re-placed.
	ProbeTimeout time.Duration
	// RetryBackoff is the initial retry delay, doubled per attempt. Zero
	// defaults to 50ms.
	RetryBackoff time.Duration
}

const (
	// vnodes is the number of ring points per peer; more points smooth
	// the load split.
	vnodes = 64
	// maxRetries bounds per-peer transient retries before the peer is
	// declared down for this operation.
	maxRetries           = 3
	defaultProbeInterval = time.Second
	defaultProbeTimeout  = 2 * time.Second
	defaultRetryBackoff  = 50 * time.Millisecond
)

func (c Config) probeInterval() time.Duration {
	if c.ProbeInterval == 0 {
		return defaultProbeInterval
	}
	return c.ProbeInterval
}

func (c Config) probeTimeout() time.Duration {
	if c.ProbeTimeout <= 0 {
		return defaultProbeTimeout
	}
	return c.ProbeTimeout
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return defaultRetryBackoff
	}
	return c.RetryBackoff
}

// Fingerprint condenses a request into the placement key: the route plus
// the raw request body. Identical problems produce identical
// fingerprints, which the ring maps to the same peer — that peer's
// tunecache and arenas answer repeats without re-measuring. (Two bodies
// that differ only in JSON formatting hash apart; that only costs the
// affinity, never correctness.)
func Fingerprint(route string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(route))
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}
