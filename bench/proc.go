package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicksPerSec is the unit of the CPU-time fields of /proc/<pid>/stat
// (USER_HZ, 100 on every Linux ABI Go supports).
const clockTicksPerSec = 100

// cpuSeconds reads user+system CPU time of pid from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime (fields 14 and 15). The command name
// (field 2) is parenthesized and may contain spaces, so fields are counted
// from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: malformed /proc stat line")
	}
	f := strings.Fields(string(stat[i+1:])) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad CPU fields in /proc stat line")
	}
	return float64(utime+stime) / clockTicksPerSec, nil
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of pid.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseUint(f[0], 10, 64)
				if err == nil {
					return float64(kb) * 1024 / 1e6, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc status")
}

// resetOwnPeakRSS restarts this process's VmHWM from its current resident
// set, so the peak reported for a window is not the peak of an earlier,
// torn-down set-up. Where /proc forbids it the mark simply stays.
func resetOwnPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procSet owns every child process of the run. Children start in their
// own process group, so killing the group reaches anything they spawn,
// and die with the benchmark even if it is killed outright.
type procSet struct {
	mu    sync.Mutex
	procs []*exec.Cmd
}

var children procSet

func (ps *procSet) start(logPath, bin string, args ...string) (*exec.Cmd, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, cmd)
	ps.mu.Unlock()
	return cmd, nil
}

// kill stops cmd's process group and waits until the process has ended.
func (ps *procSet) kill(cmd *exec.Cmd) {
	ps.mu.Lock()
	for i, c := range ps.procs {
		if c == cmd {
			ps.procs = append(ps.procs[:i], ps.procs[i+1:]...)
			break
		}
	}
	ps.mu.Unlock()
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	_ = cmd.Wait()
}

// killAll is the last-resort cleanup of every exit path.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	procs := append([]*exec.Cmd(nil), ps.procs...)
	ps.mu.Unlock()
	for _, c := range procs {
		ps.kill(c)
	}
}

// freePort asks the kernel for an unused loopback port. Another process
// may take it before the server binds, so callers retry on a failed boot.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// computeThreads is the number of compute threads of every op, and of
// client connections: one. See runOps.
const computeThreads = 1

// env is where a run may read and write: the checkout it was started
// from, and a scratch directory of its own under .bench_build.
type env struct {
	root   string // checkout root (holds go.mod of module stencilsched)
	spec   *benchSpec
	work   string // per-run scratch, removed at exit
	server string // built stencilserved binary, "" until needed
	nproc  int    // processors of the host, for the two-thread probes
	seq    int    // makes scratch names unique
}

// findRoot walks up from the working directory to the stencilsched module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module stencilsched\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no stencilsched module above the working directory")
		}
		dir = parent
	}
}

func newEnv(nproc int) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, spec: spec, work: work, nproc: nproc}, nil
}

func (e *env) close() {
	children.killAll()
	_ = os.RemoveAll(e.work)
}

// scratchDir returns a fresh directory under the run's scratch space.
func (e *env) scratchDir(prefix string) (string, error) {
	e.seq++
	dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", prefix, e.seq))
	return dir, os.MkdirAll(dir, 0o755)
}

// serverBinary builds stencilserved once per run, before any clock starts.
func (e *env) serverBinary() (string, error) {
	if e.server == "" {
		out := filepath.Join(e.root, ".bench_build", "bin", "stencilserved")
		if err := buildServer(e.root, out); err != nil {
			return "", err
		}
		e.server = out
	}
	return e.server, nil
}

// waitUntil polls cond every millisecond until it holds or the deadline
// passes.
func waitUntil(deadline time.Duration, cond func() bool) bool {
	end := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
