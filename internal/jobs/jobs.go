// Package jobs is the scheduling service's execution core: a bounded
// worker-pool job queue with per-job context cancellation and timeouts,
// status tracking, a thread-budget semaphore, and graceful drain.
//
// Two bounds matter independently. The worker count limits how many jobs
// execute at once; the thread budget limits how many goroutine-threads
// those jobs fork in total, because a measured benchmark sharing cores
// with another measured benchmark produces garbage numbers. A job
// declares its thread need at submission and a worker acquires that many
// tokens (FIFO, so wide jobs are not starved) before the job's function
// runs.
//
// Lifecycle: pending -> running -> done | failed | canceled. Cancellation
// is cooperative — the job function receives a context and is expected to
// check it (the stencilsched *Context entry points do) — except for jobs
// still waiting in the queue or for thread tokens, which cancel
// immediately. Each job carries one completion channel, closed the moment
// it settles, so Wait hands a caller the terminal snapshot without
// polling.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Status is a job's lifecycle state.
type Status string

// The job lifecycle states.
const (
	StatusPending  Status = "pending"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Func is the work a job performs. It must honor ctx to be cancelable
// and its result must be JSON-marshalable (it is served over the wire).
type Func func(ctx context.Context) (any, error)

// Submission errors.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrDraining  = errors.New("jobs: queue draining")
	// ErrTenantLimit: the tenant already has its full quota of live
	// (pending or running) jobs. Per-tenant admission control, so one
	// tenant flooding the queue cannot starve the rest; the service maps
	// it to 429.
	ErrTenantLimit = errors.New("jobs: tenant at capacity")
)

// Tag is what a submission carries beyond its work: the tenant it is
// admitted and accounted under, and the id of the request that asked for
// it, so one request can be followed across nodes.
type Tag struct {
	Tenant    string
	RequestID string
}

// job is the internal record; all mutable fields are guarded by Queue.mu.
type job struct {
	id       string
	kind     string
	tag      Tag
	threads  int
	timeout  time.Duration
	fn       Func
	status   Status
	result   any
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc // set once a worker picks the job up
	canceled bool               // cancel requested
	done     chan struct{}      // closed when the job settles (see settleLocked)
}

// Snapshot is a job's externally visible state.
type Snapshot struct {
	ID        string     `json:"id"`
	Kind      string     `json:"kind"`
	Tenant    string     `json:"tenant,omitempty"`
	RequestID string     `json:"request_id,omitempty"`
	Status    Status     `json:"status"`
	Threads   int        `json:"threads"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Result    any        `json:"result,omitempty"`
	Error     string     `json:"error,omitempty"`
}

func (j *job) snapshot() Snapshot {
	s := Snapshot{
		ID: j.id, Kind: j.kind, Tenant: j.tag.Tenant, RequestID: j.tag.RequestID,
		Status: j.status, Threads: j.threads, Created: j.created, Result: j.result, Error: j.err,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// Stats summarizes the queue for health and metrics endpoints.
type Stats struct {
	Pending  int `json:"pending"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Evicted counts terminal jobs dropped from the bounded history; the
	// lifecycle counters above only see retained jobs.
	Evicted      int `json:"evicted"`
	Waiters      int `json:"waiters"` // callers parked in Wait right now
	Workers      int `json:"workers"`
	ThreadsInUse int `json:"threads_in_use"`
	ThreadCap    int `json:"thread_cap"`
}

// Queue is a bounded worker-pool job queue. Create one with New; all
// methods are safe for concurrent use.
type Queue struct {
	mu         sync.Mutex
	jobs       map[string]*job
	order      []string
	pending    chan *job
	sem        *threadSem
	workers    int
	seq        uint64
	draining   bool
	history    int            // max terminal jobs retained (see SetHistoryLimit)
	evicted    int            // terminal jobs dropped from the history
	tenantCap  int            // max live jobs per tenant (0 = unlimited)
	live       map[string]int // live (non-terminal) jobs per tenant
	waiters    atomic.Int64   // callers parked in Wait
	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// DefaultHistoryLimit bounds retained terminal jobs when SetHistoryLimit
// is never called. A long-lived service submits jobs forever; retaining
// every terminal record (id, result payload, error string) forever is an
// unbounded leak, so the queue keeps a recent window for /v1/jobs and
// evicts the oldest terminal jobs beyond it.
const DefaultHistoryLimit = 1024

// New starts a queue with the given worker count, pending-queue depth,
// and total thread budget (each clamped to at least 1).
func New(workers, depth, maxThreads int) *Queue {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		jobs:       make(map[string]*job),
		pending:    make(chan *job, depth),
		sem:        newThreadSem(maxThreads),
		workers:    workers,
		history:    DefaultHistoryLimit,
		live:       make(map[string]int),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// SetHistoryLimit bounds how many terminal jobs the queue retains for
// Get/List (n < 1 keeps only live jobs). Once the bound is exceeded the
// oldest terminal jobs are evicted; live jobs are never evicted.
func (q *Queue) SetHistoryLimit(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n < 0 {
		n = 0
	}
	q.history = n
	q.evictLocked()
}

// SetTenantLimit caps the live (pending or running) jobs any one tenant
// may hold; submissions beyond it fail with ErrTenantLimit. Zero removes
// the cap. Untagged submissions count as the "" tenant.
func (q *Queue) SetTenantLimit(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n < 0 {
		n = 0
	}
	q.tenantCap = n
}

// Submit enqueues fn as a job of the given kind needing threads
// goroutine-threads, with an optional per-job timeout (0 means none). It
// never blocks: a full queue returns ErrQueueFull and a draining queue
// ErrDraining.
func (q *Queue) Submit(kind string, threads int, timeout time.Duration, fn Func) (Snapshot, error) {
	return q.SubmitTagged(kind, Tag{}, threads, timeout, fn)
}

// SubmitTagged is Submit with a tag: the tenant drives admission control
// and accounting (a tenant at its SetTenantLimit quota gets
// ErrTenantLimit), and the request id is carried on the job's snapshots.
func (q *Queue) SubmitTagged(kind string, tag Tag, threads int, timeout time.Duration, fn Func) (Snapshot, error) {
	if fn == nil {
		return Snapshot{}, fmt.Errorf("jobs: nil job func")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return Snapshot{}, ErrDraining
	}
	if q.tenantCap > 0 && q.live[tag.Tenant] >= q.tenantCap {
		return Snapshot{}, ErrTenantLimit
	}
	q.seq++
	j := &job{
		id:      fmt.Sprintf("%s-%d", kind, q.seq),
		kind:    kind,
		tag:     tag,
		threads: q.sem.clamp(threads),
		timeout: timeout,
		fn:      fn,
		status:  StatusPending,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	select {
	case q.pending <- j:
	default:
		return Snapshot{}, ErrQueueFull
	}
	q.jobs[j.id] = j
	q.order = append(q.order, j.id)
	q.live[tag.Tenant]++
	return j.snapshot(), nil
}

// TenantLive reports a tenant's live (pending or running) job count.
func (q *Queue) TenantLive(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.live[tenant]
}

// Get returns the job's current snapshot.
func (q *Queue) Get(id string) (Snapshot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// Wait blocks until the job settles or ctx ends, then returns its
// snapshot — terminal in the first case, whatever it is by then in the
// second. It holds the job itself rather than its id, so a job evicted
// from the history after it settles still answers. The bool is false
// only for an id the queue does not know when Wait is called.
func (q *Queue) Wait(ctx context.Context, id string) (Snapshot, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	q.waiters.Add(1)
	defer q.waiters.Add(-1)
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return j.snapshot(), true
}

// List returns every job in submission order.
func (q *Queue) List() []Snapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Snapshot, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.jobs[id].snapshot())
	}
	return out
}

// Cancel requests cancellation of a job. Jobs not yet picked up by a
// worker become canceled immediately; running jobs get their context
// canceled and finish as canceled once their function returns. Canceling
// a finished job is a no-op. It reports whether the job exists.
func (q *Queue) Cancel(id string) (Snapshot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	q.cancelLocked(j)
	return j.snapshot(), true
}

// cancelLocked marks j canceled; q.mu is held.
func (q *Queue) cancelLocked(j *job) {
	if j.status.Terminal() {
		return
	}
	j.canceled = true
	if j.cancel != nil {
		j.cancel()
		return
	}
	// Still buffered in the pending channel: settle it now; the worker
	// that eventually pops it will see the terminal status and skip.
	j.status = StatusCanceled
	j.finished = time.Now()
	q.settleLocked(j)
}

// settleLocked accounts j's transition into a terminal state: the
// tenant's live count drops, the job's waiters wake, and the terminal
// history is re-bounded. It is the one place a job becomes terminal and
// runs exactly once per job. q.mu is held and j.status is already
// terminal.
func (q *Queue) settleLocked(j *job) {
	if n := q.live[j.tag.Tenant]; n > 1 {
		q.live[j.tag.Tenant] = n - 1
	} else {
		delete(q.live, j.tag.Tenant)
	}
	close(j.done)
	q.evictLocked()
}

// evictLocked drops the oldest terminal jobs beyond the history bound;
// live jobs are never dropped. q.mu is held.
func (q *Queue) evictLocked() {
	terminal := 0
	for _, id := range q.order {
		if q.jobs[id].status.Terminal() {
			terminal++
		}
	}
	drop := terminal - q.history
	if drop <= 0 {
		return
	}
	keep := q.order[:0]
	for i, id := range q.order {
		if drop > 0 && q.jobs[id].status.Terminal() {
			delete(q.jobs, id)
			q.evicted++
			drop--
			continue
		}
		if drop == 0 {
			keep = append(keep, q.order[i:]...)
			break
		}
		keep = append(keep, id)
	}
	// Zero the tail so evicted ids do not pin job records via the old
	// backing array.
	for i := len(keep); i < len(q.order); i++ {
		q.order[i] = ""
	}
	q.order = keep
}

// Stats returns current queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := Stats{Workers: q.workers, ThreadCap: q.sem.cap, ThreadsInUse: q.sem.inUse(), Evicted: q.evicted,
		Waiters: int(q.waiters.Load())}
	for _, j := range q.jobs {
		switch j.status {
		case StatusPending:
			s.Pending++
		case StatusRunning:
			s.Running++
		case StatusDone:
			s.Done++
		case StatusFailed:
			s.Failed++
		case StatusCanceled:
			s.Canceled++
		}
	}
	return s
}

// Drain shuts the queue down gracefully: it stops accepting submissions,
// cancels jobs that have not started, and waits for running jobs to
// finish. If ctx expires first, the running jobs' contexts are canceled
// and Drain still waits for the workers to return (cooperative
// cancellation: a job that ignores its context delays shutdown) before
// returning ctx's error. Drain is idempotent.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		close(q.pending)
	}
	for _, j := range q.jobs {
		if j.status == StatusPending {
			q.cancelLocked(j)
		}
	}
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		q.baseCancel()
		<-done
		return ctx.Err()
	}
}

// worker executes jobs from the pending channel until it closes.
func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.pending {
		q.run(j)
	}
}

// run executes one job through its full lifecycle.
func (q *Queue) run(j *job) {
	q.mu.Lock()
	if j.status.Terminal() { // canceled while still queued
		q.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(q.baseCtx)
	j.cancel = cancel
	timeout := j.timeout
	q.mu.Unlock()
	defer cancel()
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}

	granted, err := q.sem.acquire(ctx, j.threads)
	if err != nil {
		q.finish(j, nil, err)
		return
	}
	defer q.sem.release(granted)

	q.mu.Lock()
	if j.canceled {
		// Canceled between the token grant and dispatch: the job must not
		// run. Cancel sets j.canceled under q.mu before its context
		// cancellation is observable, so this check closes the race where
		// acquire's fast path wins against ctx.Done. The deferred release
		// returns the tokens.
		q.mu.Unlock()
		q.finish(j, nil, context.Canceled)
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	q.mu.Unlock()

	res, err := runSafely(ctx, j.fn)
	q.finish(j, res, err)
}

// runSafely converts a panicking job into a failed one instead of
// crashing the worker (and with it every queued job).
func runSafely(ctx context.Context, fn Func) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: job panicked: %v", r)
		}
	}()
	return fn(ctx)
}

// finish settles a job's terminal state.
func (q *Queue) finish(j *job, res any, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.finished = time.Now()
	switch {
	case j.canceled:
		// Cancellation wins even over a nil error: a running job whose fn
		// ignores its context and returns success after Cancel must still
		// settle as canceled, or clients observe a "done" job they were
		// told they canceled.
		j.status = StatusCanceled
		if err == nil {
			err = context.Canceled
		}
		j.err = err.Error()
	case err == nil:
		j.status = StatusDone
		j.result = res
	default:
		j.status = StatusFailed
		j.err = err.Error()
	}
	q.settleLocked(j)
}
