package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// pollEvery is how long a client sleeps between two looks at its job.
const pollEvery = 20 * time.Millisecond

// node is one running stencilserved process.
type node struct {
	name    string
	url     string
	cmd     *exec.Cmd
	bootSec float64 // spawn to first 200 from /healthz
}

// bootNode starts stencilserved on a free loopback port with a fresh
// cache directory and waits for /healthz; args are the flags beyond -addr
// and -cache-dir. port 0 picks a free port, and a port lost to another
// process between the probe and the bind is retried on a new one; a port
// the caller fixed is the caller's to replace.
func (e *env) bootNode(name string, port int, args ...string) (*node, error) {
	bin, err := e.serverBinary()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		p := port
		if p == 0 || attempt > 0 {
			if p, err = freePort(); err != nil {
				return nil, err
			}
		}
		dir, err := e.scratchDir(name)
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(p)
		start := time.Now()
		cmd, err := children.start(filepath.Join(dir, "log"), bin,
			append([]string{"-addr", addr, "-cache-dir", filepath.Join(dir, "cache")}, args...)...)
		if err != nil {
			return nil, err
		}
		n := &node{name: name, url: "http://" + addr, cmd: cmd}
		hc := &http.Client{Timeout: time.Second}
		up := waitUntil(10*time.Second, func() bool {
			resp, err := hc.Get(n.url + "/healthz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
		hc.CloseIdleConnections()
		if up {
			n.bootSec = time.Since(start).Seconds()
			return n, nil
		}
		children.kill(cmd)
		lastErr = fmt.Errorf("bench: %s did not answer /healthz on %s", name, addr)
		if port != 0 {
			break // the caller fixed the port; it must pick another
		}
	}
	return nil, lastErr
}

// client talks to one base URL over one connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: computeThreads, MaxIdleConnsPerHost: computeThreads, DisableCompression: true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// exchange performs one HTTP exchange under a span named name. opID rides
// along as X-Request-Id so a later in-program trace can join its spans to
// these.
func (c *client) exchange(sp *spanRef, name, method, path string, body []byte, opID int) (int, []byte, error) {
	s := sp.child(name)
	defer s.end()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-Id", strconv.Itoa(opID))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	return resp.StatusCode, data, err
}

func (c *client) getJSON(path string, out any) error {
	code, data, err := c.exchange(nil, "", http.MethodGet, path, nil, -1)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("bench: GET %s: status %d: %s", path, code, data)
	}
	return json.Unmarshal(data, out)
}

// jobSnapshot is the part of a stencilserved job the benchmark reads.
type jobSnapshot struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

func (j jobSnapshot) terminal() bool {
	return j.Status == "done" || j.Status == "failed" || j.Status == "canceled"
}

// queueFacts records how long the job waited for a worker and how long it
// ran, from the timestamps the queue stamped on it.
func (j jobSnapshot) queueFacts(r *opResult) {
	if j.Started != nil && j.Finished != nil {
		r.fact("jobs.queue_wait_s", j.Started.Sub(j.Created).Seconds())
		r.fact("jobs.run_s", j.Finished.Sub(*j.Started).Seconds())
	}
}

// placed is the coordinator's envelope around a peer's result.
type placed struct {
	Peer         string          `json:"peer"`
	RemoteID     string          `json:"remote_id"`
	Replacements int             `json:"replacements"`
	Result       json.RawMessage `json:"result"`
}

// reply is the terminal answer to one served request.
type reply struct {
	Sync    bool            // answered inline with 200, no job
	Payload json.RawMessage // the solve or autotune result itself
	Job     jobSnapshot     // terminal job (zero when Sync)
	Placed  *placed         // set when a coordinator relayed the result
}

// call submits body to path and waits, polling, for the terminal answer.
// Refusals (429, 503) are counted on r and retried after a pause, so the
// run goes on, but tallyOf counts such an op as failed.
func (c *client) call(sp *spanRef, opID int, path string, body []byte, r *opResult) (reply, error) {
	var code int
	var data []byte
	for {
		var err error
		if code, data, err = c.exchange(sp, "stencilserved.submit", http.MethodPost, path, body, opID); err != nil {
			return reply{}, err
		}
		if code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
			break
		}
		if r.Throttled++; r.Throttled > 50 {
			return reply{}, fmt.Errorf("refused %d times, last status %d", r.Throttled, code)
		}
		time.Sleep(100 * time.Millisecond)
	}
	switch code {
	case http.StatusOK:
		r.fact("sync", 1)
		return reply{Sync: true, Payload: data}, nil
	case http.StatusAccepted:
	default:
		return reply{}, fmt.Errorf("submit status %d: %s", code, strings.TrimSpace(string(data)))
	}
	var job jobSnapshot
	if err := json.Unmarshal(data, &job); err != nil || job.ID == "" {
		return reply{}, fmt.Errorf("submit answered no job: %s", data)
	}
	polls := 0
	for !job.terminal() {
		time.Sleep(pollEvery)
		code, data, err := c.exchange(sp, "stencilserved.poll", http.MethodGet, "/v1/jobs/"+job.ID, nil, opID)
		if err != nil {
			return reply{}, err
		}
		if code != http.StatusOK {
			return reply{}, fmt.Errorf("poll status %d: %s", code, data)
		}
		polls++
		job = jobSnapshot{}
		if err := json.Unmarshal(data, &job); err != nil {
			return reply{}, err
		}
	}
	seen := time.Now()
	r.fact("polls", float64(polls))
	if job.Status != "done" {
		return reply{}, fmt.Errorf("job %s ended %s: %s", job.ID, job.Status, job.Error)
	}
	if job.Finished != nil {
		r.fact("poll_lag_s", seen.Sub(*job.Finished).Seconds())
	}
	rep := reply{Payload: job.Result, Job: job}
	var env placed
	if json.Unmarshal(job.Result, &env) == nil && env.Peer != "" {
		rep.Placed, rep.Payload = &env, env.Result
		r.fact("replacements", float64(env.Replacements))
		if job.Finished != nil {
			r.fact("fleet.placement_s", job.Finished.Sub(job.Created).Seconds())
		}
	} else {
		job.queueFacts(r)
	}
	return rep, nil
}

// metricValue reads one unlabelled sample from a Prometheus text page.
func (c *client) metricValue(name string) (float64, error) {
	code, data, err := c.exchange(nil, "", http.MethodGet, "/metrics", nil, -1)
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("bench: GET /metrics: status %d: %v", code, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("bench: metric %s not on /metrics", name)
}

// solveBody is a /v1/solve request.
type solveBody struct {
	DomainN    int        `json:"domain_n"`
	BoxN       int        `json:"box_n"`
	Variant    string     `json:"variant,omitempty"`
	U          [3]float64 `json:"u"`
	Dt         float64    `json:"dt"`
	Steps      int        `json:"steps"`
	Integrator string     `json:"integrator"`
	Threads    int        `json:"threads"`
	Ranks      int        `json:"ranks,omitempty"`
	HaloK      int        `json:"halo_k,omitempty"`
	Backend    string     `json:"backend,omitempty"`
}

// solvePayload is the union of the fields the three solve backends report.
type solvePayload struct {
	DomainN    int         `json:"domain_n"`
	NumBoxes   int         `json:"num_boxes"`
	Steps      int         `json:"steps"`
	K          int         `json:"k"`
	Ranks      int         `json:"ranks"`
	HaloK      int         `json:"halo_k"`
	Totals     *[5]float64 `json:"totals"`
	ElapsedSec float64     `json:"elapsed_sec"`
	Messages   int64       `json:"messages"`
	Bytes      int64       `json:"bytes"`
	Retries    int64       `json:"retries"`
	Recomputed int64       `json:"recomputed_cells"`
}

// conservedTotals checks the domain sums a periodic solve must keep: the
// served density and energy profiles sum to one per cell and the
// velocities are constant.
func conservedTotals(got [5]float64, domainN int, u [3]float64) error {
	cells := float64(domainN) * float64(domainN) * float64(domainN)
	want := [5]float64{cells, u[0] * cells, u[1] * cells, u[2] * cells, cells}
	for c := range want {
		if d := got[c] - want[c]; d > 1e-9*cells || d < -1e-9*cells {
			return fmt.Errorf("totals[%d] = %.12g, want %.12g", c, got[c], want[c])
		}
	}
	return nil
}
