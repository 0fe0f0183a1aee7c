package dist

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

const (
	// tcpDialTimeout is the total per-peer connection budget, retries
	// included — peers of a just-launched mesh may not be listening yet.
	tcpDialTimeout = 10 * time.Second
	// tcpDialBackoff is the delay between dial retries.
	tcpDialBackoff = 50 * time.Millisecond
	// tcpWriteTimeout is the per-frame write deadline.
	tcpWriteTimeout = 10 * time.Second
)

// tcpConn is one established peer link with its write lock and scratch.
type tcpConn struct {
	mu      sync.Mutex
	c       net.Conn
	scratch []byte
	down    bool
}

// recvItem is what reader goroutines feed the shared inbox: a frame, or
// a peer-down notice.
type recvItem struct {
	f    Frame
	from int
	err  error
}

// TCPTransport is a fully-connected mesh over length-prefixed frames:
// rank i dials every lower rank and accepts every higher one, each
// connection opening with a hello frame that authenticates the dialer's
// rank and cross-checks the mesh size. One reader goroutine per
// connection feeds a shared inbox; a read failure is delivered in-band
// as a peer-down item so a dead peer fails the waiting receive quickly
// instead of letting it ride out the full exchange deadline.
type TCPTransport struct {
	rank, ranks int
	maxValues   int
	writeTO     time.Duration
	conns       []*tcpConn // indexed by peer rank; conns[rank] nil
	inbox       chan recvItem
	done        chan struct{}
	closeOnce   sync.Once
	readers     sync.WaitGroup
}

// ConnectTCP establishes rank's endpoint of an addrs-sized mesh: ln is
// this rank's already-bound listener (addrs[rank] should be its
// address), addrs the peers'. It blocks until every peer link is up or
// the dial budget runs out. maxValues is the frame-decode bound (pass
// the plan's MaxFrameValues). The listener stays open and owned by the
// caller; it is only force-closed to unblock a failed handshake.
func ConnectTCP(ctx context.Context, rank int, ln net.Listener, addrs []string, maxValues int) (*TCPTransport, error) {
	ranks := len(addrs)
	if rank < 0 || rank >= ranks {
		return nil, fmt.Errorf("dist: tcp rank %d of %d", rank, ranks)
	}
	if maxValues < 1 {
		maxValues = DefaultMaxFrameValues
	}
	t := &TCPTransport{
		rank:      rank,
		ranks:     ranks,
		maxValues: maxValues,
		writeTO:   tcpWriteTimeout,
		conns:     make([]*tcpConn, ranks),
		inbox:     make(chan recvItem, 256),
		done:      make(chan struct{}),
	}

	ctx, cancel := context.WithTimeout(ctx, tcpDialTimeout)
	defer cancel()

	// First failure wins; it cancels the ctx and unblocks the Accept.
	var failOnce sync.Once
	var failErr error
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			cancel()
			ln.Close()
		})
	}
	// Watchdog: a plain ctx timeout must also unblock the Accept.
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	// Accept side: every higher rank dials us and identifies itself
	// with a hello frame.
	if expect := ranks - 1 - rank; expect > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[int]bool)
			for len(seen) < expect {
				c, err := ln.Accept()
				if err != nil {
					fail(fmt.Errorf("dist: rank %d accept: %w", rank, err))
					return
				}
				peer, err := t.readHello(c)
				if err != nil || peer <= rank || peer >= ranks || seen[peer] {
					c.Close()
					if err == nil {
						err = fmt.Errorf("%w: unexpected hello from rank %d", ErrProtocol, peer)
					}
					fail(fmt.Errorf("dist: rank %d handshake: %w", rank, err))
					return
				}
				seen[peer] = true
				t.conns[peer] = &tcpConn{c: c}
			}
		}()
	}
	// Dial side: we dial every lower rank, retrying while it boots.
	for peer := 0; peer < rank; peer++ {
		peer := peer
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := t.dialPeer(ctx, addrs[peer])
			if err != nil {
				fail(fmt.Errorf("dist: rank %d dial rank %d (%s): %w", rank, peer, addrs[peer], err))
				return
			}
			t.conns[peer] = &tcpConn{c: c}
		}()
	}
	wg.Wait()
	close(stop)
	if failErr != nil {
		t.Close()
		return nil, failErr
	}

	for peer, pc := range t.conns {
		if pc == nil {
			continue
		}
		peer, pc := peer, pc
		t.readers.Add(1)
		go t.readLoop(peer, pc)
	}
	return t, nil
}

func (t *TCPTransport) dialPeer(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	for {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			// Hello: Step carries the mesh size so both ends agree on
			// the run's shape before any data flows.
			_, werr := WriteFrame(c, &Frame{Type: TypeHello, Rank: uint16(t.rank), Step: uint32(t.ranks)}, nil)
			if werr != nil {
				c.Close()
				return nil, werr
			}
			return c, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%v (last dial error: %w)", ctx.Err(), err)
		case <-time.After(tcpDialBackoff):
		}
	}
}

func (t *TCPTransport) readHello(c net.Conn) (int, error) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	f, _, err := ReadFrame(c, t.maxValues, nil)
	if err != nil {
		return -1, err
	}
	if f.Type != TypeHello {
		return -1, fmt.Errorf("%w: expected hello, got frame type %d", ErrProtocol, f.Type)
	}
	if int(f.Step) != t.ranks {
		return -1, fmt.Errorf("%w: peer rank %d believes the mesh has %d ranks, not %d",
			ErrProtocol, f.Rank, f.Step, t.ranks)
	}
	return int(f.Rank), nil
}

// readLoop feeds peer's frames into the shared inbox until the
// connection dies or the transport closes.
func (t *TCPTransport) readLoop(peer int, pc *tcpConn) {
	defer t.readers.Done()
	var scratch []byte
	for {
		var f Frame
		var err error
		f, scratch, err = ReadFrame(pc.c, t.maxValues, scratch)
		if err == nil && f.Type == typeBye {
			return // the peer finished its run; its EOF is not a failure
		}
		item := recvItem{f: f, from: peer}
		if err != nil {
			select {
			case <-t.done:
				return // closing: the error is ours, not the peer's
			default:
			}
			item = recvItem{from: peer, err: fmt.Errorf("rank %d link: %v: %w", peer, err, ErrPeerDown)}
		}
		select {
		case t.inbox <- item:
		case <-t.done:
			return
		}
		if item.err != nil {
			return
		}
	}
}

func (t *TCPTransport) Rank() int  { return t.rank }
func (t *TCPTransport) Ranks() int { return t.ranks }

// Send writes one frame to peer `to` under the write deadline. A failed
// link is remembered: subsequent sends fail fast with ErrPeerDown.
func (t *TCPTransport) Send(ctx context.Context, to int, f *Frame) error {
	if to < 0 || to >= t.ranks || to == t.rank {
		return fmt.Errorf("%w: send to rank %d of %d", ErrProtocol, to, t.ranks)
	}
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	pc := t.conns[to]
	if pc == nil {
		return fmt.Errorf("rank %d link never established: %w", to, ErrPeerDown)
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.down {
		return fmt.Errorf("rank %d link down: %w", to, ErrPeerDown)
	}
	deadline := time.Now().Add(t.writeTO)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	pc.c.SetWriteDeadline(deadline)
	var err error
	pc.scratch, err = WriteFrame(pc.c, f, pc.scratch)
	if err != nil {
		pc.down = true
		pc.c.Close()
		return fmt.Errorf("rank %d write: %v: %w", to, err, ErrPeerDown)
	}
	return nil
}

// sayBye tells every peer that this rank completed its run, so that a
// slower peer still collecting frames from the others does not take the
// close that follows for a death. Best effort: a link that is already
// down has nobody to tell.
func (t *TCPTransport) sayBye(ctx context.Context) {
	for to := range t.conns {
		if to != t.rank {
			_ = t.Send(ctx, to, &Frame{Type: typeBye, Rank: uint16(t.rank)})
		}
	}
}

// Recv returns the next frame from any peer. A broken link surfaces as
// an error wrapping ErrPeerDown.
func (t *TCPTransport) Recv(ctx context.Context) (Frame, error) {
	select {
	case item := <-t.inbox:
		if item.err != nil {
			return Frame{}, item.err
		}
		return item.f, nil
	case <-t.done:
		return Frame{}, ErrClosed
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	}
}

// Close tears the mesh down: closes every link and waits for the reader
// goroutines, so no goroutine outlives the transport.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		for _, pc := range t.conns {
			if pc != nil {
				pc.mu.Lock()
				pc.down = true
				pc.c.Close()
				pc.mu.Unlock()
			}
		}
	})
	t.readers.Wait()
	return nil
}
