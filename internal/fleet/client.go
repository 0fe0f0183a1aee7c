package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// remoteJob is the slice of a peer's job snapshot the coordinator needs;
// extra fields (timestamps, threads, tenant) pass through untouched.
type remoteJob struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// settled classifies a remote job snapshot, whichever request brought
// it — the submit's 202 or a later look. A live job reports ok false.
// A settled one reports ok true with its outcome: done yields the
// result; failed is the job's own, permanent *RemoteJobError; canceled
// is the peer leaving (almost always a drain in progress), not the job
// failing, so it is peer-down-class and the job is re-placed.
func (c *peerClient) settled(j remoteJob) (res json.RawMessage, ok bool, err error) {
	switch j.Status {
	case "done":
		return j.Result, true, nil
	case "failed":
		return nil, true, &RemoteJobError{Peer: c.peer.Name, JobID: j.ID, Message: j.Error}
	case "canceled":
		return nil, true, &PeerError{Peer: c.peer.Name, Op: "poll",
			Err: fmt.Errorf("%w: job %s canceled by peer: %s", ErrPeerDown, j.ID, j.Error)}
	}
	return nil, false, nil
}

// RequestIDHeader names one client request across the nodes it touches:
// the coordinator forwards it on every request it makes to a peer for
// that client request, so the peer's job carries the same id.
const RequestIDHeader = "X-Request-Id"

type requestIDKey struct{}

// WithRequestID returns ctx carrying a request id; every peer request
// made under the returned context sends it as RequestIDHeader.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the request id ctx carries, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// peerClient speaks the stencilserved HTTP API to one peer. All
// transport-level failures come back as *PeerError wrapping ErrPeerDown
// (connection refused/reset: the peer is gone) or ErrTimeout (the
// context expired waiting on it), so the coordinator's placement loop
// can errors.Is its way to the retry decision.
type peerClient struct {
	peer Peer
	hc   *http.Client
}

// maxPeerResponse bounds a peer response body. Solve and autotune
// results are a few KB of JSON; a megabyte is generous and keeps a
// misbehaving peer from ballooning coordinator memory.
const maxPeerResponse = 1 << 20

// do issues one request and returns (status, body). A non-nil error is
// always transport-level and typed; HTTP error statuses are returned to
// the caller to classify (4xx permanent, 5xx transient).
func (c *peerClient) do(ctx context.Context, op, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.peer.URL, "/")+path, rd)
	if err != nil {
		return 0, nil, &PeerError{Peer: c.peer.Name, Op: op, Err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := RequestID(ctx); id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, &PeerError{Peer: c.peer.Name, Op: op, Err: classify(ctx, err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	if err != nil {
		return 0, nil, &PeerError{Peer: c.peer.Name, Op: op, Err: classify(ctx, err)}
	}
	return resp.StatusCode, data, nil
}

// classify maps a transport error onto the fleet's typed failure
// classes: a context deadline is a timeout, everything else (refused,
// reset, EOF, DNS) means the peer is unreachable.
func classify(ctx context.Context, err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled) {
		return context.Canceled
	}
	return fmt.Errorf("%w: %v", ErrPeerDown, err)
}

// submit POSTs a job request. Three shapes come back: 202 with the
// accepted job (run remotely, poll it), 200 with a synchronous result
// (the peer answered from its cache), or an HTTP error.
func (c *peerClient) submit(ctx context.Context, path string, body []byte) (int, []byte, error) {
	return c.do(ctx, "submit", http.MethodPost, path, body)
}

// getJob fetches one job snapshot, asking the peer to hold the answer
// until the job settles or wait passes.
func (c *peerClient) getJob(ctx context.Context, id string, wait time.Duration) (remoteJob, error) {
	status, data, err := c.do(ctx, "poll", http.MethodGet, "/v1/jobs/"+id+"?wait="+wait.String(), nil)
	if err != nil {
		return remoteJob{}, err
	}
	switch {
	case status == http.StatusNotFound:
		// The peer restarted (or evicted the job from its history) under
		// us: its in-flight state is gone, which is peer-down as far as
		// this job is concerned — the coordinator must re-place it.
		return remoteJob{}, &PeerError{Peer: c.peer.Name, Op: "poll",
			Err: fmt.Errorf("%w: job %s unknown to peer", ErrPeerDown, id)}
	case status != http.StatusOK:
		return remoteJob{}, &PeerError{Peer: c.peer.Name, Op: "poll",
			Err: fmt.Errorf("%w: poll status %d", ErrPeerDown, status)}
	}
	var j remoteJob
	if err := json.Unmarshal(data, &j); err != nil {
		return remoteJob{}, &PeerError{Peer: c.peer.Name, Op: "poll",
			Err: fmt.Errorf("%w: bad job snapshot: %v", ErrPeerDown, err)}
	}
	return j, nil
}

// cancelJob best-effort cancels a remote job.
func (c *peerClient) cancelJob(ctx context.Context, id string) error {
	_, _, err := c.do(ctx, "cancel", http.MethodDelete, "/v1/jobs/"+id, nil)
	return err
}

// probe checks the peer's liveness endpoint.
func (c *peerClient) probe(ctx context.Context) error {
	status, _, err := c.do(ctx, "probe", http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return &PeerError{Peer: c.peer.Name, Op: "probe",
			Err: fmt.Errorf("%w: healthz status %d", ErrPeerDown, status)}
	}
	return nil
}
