package dist

import (
	"context"
	"fmt"
	"sync"
)

// FaultHook intercepts every loopback delivery: returning a non-nil
// error fails the send. Tests use it to kill a rank mid-exchange
// deterministically (e.g. return ErrPeerDown on the first frame of
// superstep 1).
type FaultHook func(from, to int, f *Frame) error

// Hub is the in-process loopback fabric: one bounded inbox of encoded
// frames per rank. Every frame still round-trips through the wire
// encoder/decoder, so loopback runs (and therefore the conformance
// sweep) exercise the same serialization path TCP uses. Each endpoint
// decodes into one buffer it reuses, so a frame's Data is valid only
// until the endpoint's next Recv.
//
// Killing a rank closes its transport from the inside (its own Send and
// Recv start failing) and marks it dead to peers — frames routed to it
// return ErrPeerDown, and anyone waiting on frames *from* it runs into
// the receive deadline. Frame channels are never closed; liveness is
// signaled through dedicated done channels, so a concurrent Send can
// never panic on a closed channel.
type Hub struct {
	ranks     int
	maxValues int
	fault     FaultHook

	mu      sync.RWMutex
	inboxes []chan []byte
	dead    []chan struct{} // closed when the rank is killed
	closed  chan struct{}
}

// NewHub creates a loopback fabric for `ranks` peers with per-rank
// inboxes of `buffer` frames (a full inbox makes Send return the
// transient ErrBackpressure). maxValues bounds frame decoding; pass the
// plan's MaxFrameValues.
func NewHub(ranks, buffer, maxValues int) *Hub {
	if buffer < 1 {
		buffer = 1
	}
	if maxValues < 1 {
		maxValues = DefaultMaxFrameValues
	}
	h := &Hub{
		ranks:     ranks,
		maxValues: maxValues,
		inboxes:   make([]chan []byte, ranks),
		dead:      make([]chan struct{}, ranks),
		closed:    make(chan struct{}),
	}
	for i := range h.inboxes {
		h.inboxes[i] = make(chan []byte, buffer)
		h.dead[i] = make(chan struct{})
	}
	return h
}

// SetFault installs the delivery fault hook. Call before the run starts.
func (h *Hub) SetFault(f FaultHook) { h.fault = f }

// Kill marks a rank dead: its own transport fails from now on and
// frames routed to it return ErrPeerDown. Idempotent.
func (h *Hub) Kill(rank int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case <-h.dead[rank]:
	default:
		close(h.dead[rank])
	}
}

// Close shuts the whole fabric down; all pending and future transport
// calls return ErrClosed. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case <-h.closed:
	default:
		close(h.closed)
	}
}

// Transport returns rank's endpoint.
func (h *Hub) Transport(rank int) Transport {
	if rank < 0 || rank >= h.ranks {
		panic(fmt.Sprintf("dist: loopback rank %d of %d", rank, h.ranks))
	}
	return &loopTransport{h: h, rank: rank}
}

type loopTransport struct {
	h    *Hub
	rank int
	// buf is the receiver's decode buffer, reused by every Recv: a
	// returned frame's Data is valid until the next Recv.
	buf []float64
}

func (t *loopTransport) Rank() int  { return t.rank }
func (t *loopTransport) Ranks() int { return t.h.ranks }

func (t *loopTransport) Send(ctx context.Context, to int, f *Frame) error {
	h := t.h
	if to < 0 || to >= h.ranks {
		return fmt.Errorf("%w: send to rank %d of %d", ErrProtocol, to, h.ranks)
	}
	if hook := h.fault; hook != nil {
		if err := hook(t.rank, to, f); err != nil {
			return err
		}
	}
	enc := EncodeFrame(f)
	h.mu.RLock()
	defer h.mu.RUnlock()
	select {
	case <-h.closed:
		return ErrClosed
	case <-h.dead[t.rank]:
		return fmt.Errorf("rank %d is dead: %w", t.rank, ErrPeerDown)
	case <-h.dead[to]:
		return fmt.Errorf("rank %d is dead: %w", to, ErrPeerDown)
	default:
	}
	select {
	case h.inboxes[to] <- enc:
		return nil
	case <-h.closed:
		return ErrClosed
	case <-h.dead[to]:
		return fmt.Errorf("rank %d is dead: %w", to, ErrPeerDown)
	case <-ctx.Done():
		return ctx.Err()
	default:
		return ErrBackpressure
	}
}

func (t *loopTransport) Recv(ctx context.Context) (Frame, error) {
	h := t.h
	select {
	case enc := <-h.inboxes[t.rank]:
		f, buf, err := DecodeFrameInto(enc[4:], h.maxValues, t.buf)
		t.buf = buf
		return f, err
	case <-h.closed:
		return Frame{}, ErrClosed
	case <-h.dead[t.rank]:
		return Frame{}, fmt.Errorf("rank %d is dead: %w", t.rank, ErrPeerDown)
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	}
}

func (t *loopTransport) Close() error { return nil }
