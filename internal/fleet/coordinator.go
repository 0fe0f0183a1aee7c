package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Coordinator owns placement: it maps request fingerprints onto peers
// through the consistent-hash ring, tracks peer health, and drives each
// placed job to a terminal state — re-placing it on the next ring
// candidate when its peer dies mid-run. It holds no job queue of its
// own; the caller (cmd/stencilserved's coordinator mode) runs Execute
// inside its jobs.Queue so admission control, tenancy, and drain reuse
// the existing machinery.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	clients []*peerClient
	hc      *http.Client

	mu    sync.Mutex
	state []peerState

	probeStop context.CancelFunc
	probeDone chan struct{}
	closeOnce sync.Once
}

type peerState struct {
	healthy   bool
	lastProbe time.Time
	lastError string
	placed    int64 // submissions attempted on this peer
	failures  int64 // typed transport failures observed on this peer
}

// PeerStatus is one peer's externally visible health and accounting.
type PeerStatus struct {
	Name      string    `json:"name"`
	URL       string    `json:"url"`
	Healthy   bool      `json:"healthy"`
	LastProbe time.Time `json:"last_probe,omitempty"`
	LastError string    `json:"last_error,omitempty"`
	Placed    int64     `json:"placed"`
	Failures  int64     `json:"failures"`
}

// New builds a coordinator over cfg.Peers. Call Start to begin health
// probing and Close to stop it.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("fleet: coordinator needs at least one peer")
	}
	names := make([]string, len(cfg.Peers))
	for i, p := range cfg.Peers {
		if p.Name == "" || p.URL == "" {
			return nil, fmt.Errorf("fleet: peer %d needs both name and url", i)
		}
		names[i] = p.Name
	}
	ring, err := NewRing(names, vnodes)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     30 * time.Second,
	}}
	c := &Coordinator{
		cfg:     cfg,
		ring:    ring,
		clients: make([]*peerClient, len(cfg.Peers)),
		hc:      hc,
		state:   make([]peerState, len(cfg.Peers)),
	}
	for i, p := range cfg.Peers {
		c.clients[i] = &peerClient{peer: p, hc: hc}
		c.state[i].healthy = true // optimistic until the first probe
	}
	return c, nil
}

// Start launches the background health prober (a no-op when probing is
// disabled). An immediate first sweep runs before Start returns, so
// placement decisions never run on fully unprobed state.
func (c *Coordinator) Start() {
	if c.cfg.ProbeInterval < 0 {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.probeStop = cancel
	c.probeDone = make(chan struct{})
	c.probeAll(ctx)
	go func() {
		defer close(c.probeDone)
		t := time.NewTicker(c.cfg.probeInterval())
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.probeAll(ctx)
			}
		}
	}()
}

// Close stops the prober and drops idle peer connections. Safe to call
// twice; in-flight Execute calls are unaffected (stop them by canceling
// their contexts).
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		if c.probeStop != nil {
			c.probeStop()
			<-c.probeDone
		}
		c.hc.CloseIdleConnections()
	})
}

// probeAll sweeps every peer once, concurrently.
func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for i := range c.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, c.cfg.probeTimeout())
			defer cancel()
			err := c.clients[i].probe(pctx)
			c.mu.Lock()
			c.state[i].lastProbe = time.Now()
			if err != nil {
				if ctx.Err() == nil { // shutdown races are not peer failures
					c.state[i].healthy = false
					c.state[i].lastError = err.Error()
				}
			} else {
				c.state[i].healthy = true
				c.state[i].lastError = ""
			}
			c.mu.Unlock()
		}(i)
	}
	wg.Wait()
}

// Peers reports every peer's status, ring order by configuration index.
func (c *Coordinator) Peers() []PeerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PeerStatus, len(c.clients))
	for i, cl := range c.clients {
		st := c.state[i]
		out[i] = PeerStatus{
			Name: cl.peer.Name, URL: cl.peer.URL,
			Healthy: st.healthy, LastProbe: st.lastProbe, LastError: st.lastError,
			Placed: st.placed, Failures: st.failures,
		}
	}
	return out
}

// Place returns the peer preference order for a fingerprint: the ring
// walk, stably reordered so currently healthy peers come first. The
// unhealthy tail is kept — when the whole fleet looks down the
// coordinator still tries, because a stale probe must not turn a
// recoverable blip into a dropped job.
func (c *Coordinator) Place(fingerprint string) []int {
	order := c.ring.Place(fingerprint)
	c.mu.Lock()
	defer c.mu.Unlock()
	healthy := make([]int, 0, len(order))
	down := make([]int, 0, 2)
	for _, p := range order {
		if c.state[p].healthy {
			healthy = append(healthy, p)
		} else {
			down = append(down, p)
		}
	}
	return append(healthy, down...)
}

// PeerName resolves a peer index from Place to its name.
func (c *Coordinator) PeerName(i int) string { return c.clients[i].peer.Name }

// markDown records a typed failure against a peer so subsequent
// placements deprioritize it until a probe brings it back.
func (c *Coordinator) markDown(i int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state[i].healthy = false
	c.state[i].failures++
	c.state[i].lastError = err.Error()
}

// ExecResult is one completed placement: where the request finally ran,
// what came back, and how it got there.
type ExecResult struct {
	// Peer is the peer that produced Result.
	Peer string `json:"peer"`
	// RemoteID is the job id on that peer ("" when the peer answered
	// synchronously, e.g. an autotune cache hit).
	RemoteID string `json:"remote_id,omitempty"`
	// Result is the peer's result payload: the job's result field, or
	// the synchronous response body.
	Result json.RawMessage `json:"result"`
	// Sync reports a synchronous (200) answer, i.e. a peer cache hit.
	Sync bool `json:"sync,omitempty"`
	// Attempts counts submission attempts, Replacements completed
	// re-placements after a peer died mid-run (0 on the happy path).
	Attempts     int `json:"attempts"`
	Replacements int `json:"replacements"`
}

// Placement is one request's journey through the fleet: Submit finds a
// peer that accepts it (or answers it synchronously); Await drives the
// accepted job to a terminal state, re-placing it on the next ring
// candidate when its peer dies mid-run. The split exists so an HTTP
// front end can relay synchronous answers (peer cache hits, 4xx
// rejections) inline while the long poll runs inside its job queue.
type Placement struct {
	c     *Coordinator
	path  string
	body  []byte
	reqID string // the client request's id, forwarded on every peer request
	order []int  // ring preference order
	next  int    // cursor into order (with wraparound, see maxTries)
	tries int
	pi    int       // current peer index (valid once placed)
	job   remoteJob // the placed job as the peer accepted it
	res   ExecResult
}

// Result is the placement's accounting so far (final once Await
// returns).
func (p *Placement) Result() ExecResult { return p.res }

// Submit places the request on the ring: it walks the preference order
// until a peer accepts (202 → Await waits on it), answers synchronously
// (200 → Result holds the body, Await returns immediately), or the
// request is rejected as invalid (*RequestError, permanent). Peers that
// fail typed-transient are marked down and skipped; if every candidate
// is down twice over, the error wraps ErrPeerDown. The request id ctx
// carries (WithRequestID) rides on every peer request of the placement,
// Await's included.
func (c *Coordinator) Submit(ctx context.Context, path string, body []byte) (*Placement, error) {
	fp := Fingerprint(path, body)
	p := &Placement{c: c, path: path, body: body, reqID: RequestID(ctx), order: c.Place(fp)}
	return p, p.advance(ctx)
}

// maxTries bounds total submission attempts: two passes over the
// preference order, so peers marked down during this very placement get
// one more chance (covering the restart-while-placing race) before the
// job is declared unplaceable.
func (p *Placement) maxTries() int { return 2 * len(p.order) }

// advance submits to candidates starting at the cursor until one
// accepts or answers. On success p.pi/p.res are set; on typed-transient
// failure the peer is marked down and the cursor moves on.
func (p *Placement) advance(ctx context.Context) error {
	c := p.c
	backoff := c.cfg.retryBackoff()
	var lastErr error
	for ; p.tries < p.maxTries(); p.next++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		pi := p.order[p.next%len(p.order)]
		p.tries++
		p.res.Attempts++
		c.mu.Lock()
		c.state[pi].placed++
		c.mu.Unlock()
		err := p.submitOn(ctx, pi)
		if err == nil {
			p.pi = pi
			p.next++
			return nil
		}
		var reqErr *RequestError
		switch {
		case errors.As(err, &reqErr):
			return err // permanent: every peer validates identically
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return err
		}
		c.markDown(pi, err)
		lastErr = err
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
	if lastErr == nil {
		lastErr = &PeerError{Peer: "fleet", Op: "place", Err: ErrPeerDown}
	}
	return fmt.Errorf("fleet: no live peer after %d attempts: %w", p.res.Attempts, lastErr)
}

// submitOn tries one peer, retrying transient transport errors in place
// with backoff up to maxRetries before giving up on it.
func (p *Placement) submitOn(ctx context.Context, pi int) error {
	c := p.c
	cl := c.clients[pi]
	var status int
	var data []byte
	var err error
	backoff := c.cfg.retryBackoff()
	for attempt := 0; ; attempt++ {
		status, data, err = cl.submit(ctx, p.path, p.body)
		if err == nil || attempt >= maxRetries ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			break
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff *= 2
	}
	if err != nil {
		return err
	}
	switch {
	case status == http.StatusOK:
		// Synchronous answer (peer-side cache hit): nothing to poll.
		p.res.Sync = true
		p.res.Peer = cl.peer.Name
		p.res.RemoteID = ""
		p.res.Result = data
		return nil
	case status == http.StatusAccepted:
	case status >= 400 && status < 500:
		return &RequestError{Peer: cl.peer.Name, Status: status, Body: string(data)}
	default:
		return &PeerError{Peer: cl.peer.Name, Op: "submit",
			Err: fmt.Errorf("%w: submit status %d", ErrPeerDown, status)}
	}
	var j remoteJob
	if err := json.Unmarshal(data, &j); err != nil || j.ID == "" {
		return &PeerError{Peer: cl.peer.Name, Op: "submit",
			Err: fmt.Errorf("%w: bad accepted-job body: %v", ErrPeerDown, err)}
	}
	// The accepted snapshot is classified like any later one (Await starts
	// from it), so a job already settled at submit costs no look.
	p.job = j
	p.res.Sync = false
	p.res.Peer = cl.peer.Name
	p.res.RemoteID = j.ID
	p.res.Result = nil
	return nil
}

// Await drives the placement to completion: wait on the accepted job
// until it settles, and when its peer dies mid-run (typed transient
// failure, a peer that stops answering, or the peer canceling under
// drain), re-place the request on the next ring candidate and keep
// going.
//
// Degradation contract: a transient peer failure is never surfaced to
// the caller while a candidate remains — jobs are re-placed, not
// dropped. The one deliberate non-guarantee: a peer that dies after
// executing side effects may leave the job to run again elsewhere
// (at-least-once, like every re-placing scheduler).
func (p *Placement) Await(ctx context.Context) (ExecResult, error) {
	c := p.c
	ctx = WithRequestID(ctx, p.reqID)
	for {
		if p.res.Sync {
			return p.res, nil
		}
		out, err := c.pollToTerminal(ctx, p.pi, p.job)
		if err == nil {
			p.res.Peer = c.PeerName(p.pi)
			p.res.Result = out
			return p.res, nil
		}
		var jobErr *RemoteJobError
		switch {
		case errors.As(err, &jobErr):
			return p.res, err // the job itself failed; permanent
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return p.res, err
		}
		// The peer died mid-run: re-place on the next candidate.
		c.markDown(p.pi, err)
		p.res.Replacements++
		p.res.RemoteID = ""
		if aerr := p.advance(ctx); aerr != nil {
			return p.res, aerr
		}
	}
}

// Abandon best-effort cancels the remote job of a placement whose
// caller gave up between Submit and Await (e.g. the local queue was
// full), so the peer does not burn budget on an orphan.
func (p *Placement) Abandon() {
	if !p.res.Sync && p.res.RemoteID != "" {
		p.c.abandonRemote(WithRequestID(context.Background(), p.reqID), p.pi, p.res.RemoteID)
	}
}

// Execute drives one request end to end: Submit then Await. It returns
// only when the request has a result (possibly after re-placement), the
// request is invalid (*RequestError), the job itself failed
// (*RemoteJobError), every candidate is down (*PeerError wrapping
// ErrPeerDown), or ctx ends.
func (c *Coordinator) Execute(ctx context.Context, path string, body []byte) (ExecResult, error) {
	p, err := c.Submit(ctx, path, body)
	if err != nil {
		return p.res, err
	}
	return p.Await(ctx)
}

// pollToTerminal drives one remote job, starting from its last seen
// snapshot j, until it settles. Each look is a long poll: the peer holds
// the answer until the job settles or ProbeTimeout passes, and the look's
// deadline is twice that, so a peer that stops answering surfaces as
// ErrTimeout and goes straight back to the re-placement loop instead of
// being waited on again. Other transient failures retry with backoff up
// to maxRetries; past that the typed error propagates likewise. If ctx
// ends, the remote job is best-effort canceled so the peer does not burn
// its budget on an abandoned job.
func (c *Coordinator) pollToTerminal(ctx context.Context, pi int, j remoteJob) (json.RawMessage, error) {
	cl := c.clients[pi]
	wait := c.cfg.probeTimeout()
	misses := 0
	backoff := c.cfg.retryBackoff()
	for {
		if res, ok, err := cl.settled(j); ok {
			return res, err
		}
		lctx, cancel := context.WithTimeout(ctx, 2*wait)
		next, err := cl.getJob(lctx, j.ID, wait)
		cancel()
		switch {
		case err == nil:
			j = next
			misses = 0
			backoff = c.cfg.retryBackoff()
			continue
		case ctx.Err() != nil:
			c.abandonRemote(ctx, pi, j.ID)
			return nil, ctx.Err()
		case errors.Is(err, ErrTimeout):
			return nil, err
		}
		misses++
		if misses > maxRetries {
			return nil, err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			c.abandonRemote(ctx, pi, j.ID)
			return nil, ctx.Err()
		}
		backoff *= 2
	}
}

// abandonRemote best-effort cancels a remote job whose coordinator-side
// caller has gone away. It keeps ctx's values (the request id) but not
// its cancellation, which has usually already happened.
func (c *Coordinator) abandonRemote(ctx context.Context, pi int, id string) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	_ = c.clients[pi].cancelJob(ctx, id)
}
