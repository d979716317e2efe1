package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind: the server binary, temp
// data dirs, streams, traces and results. The driver points cargo at the
// same name, and .gitignore lists it.
const buildDir = ".bench_build"

// cleanup tracks what must not outlive the benchmark: child processes and
// temp directories. run registers here; cleanupAll runs on normal exit, on a
// fatal error and on SIGINT/SIGTERM.
var cleanup struct {
	sync.Mutex
	procs []*serverProc
	dirs  []string
}

func cleanupAll() {
	cleanup.Lock()
	procs, dirs := cleanup.procs, cleanup.dirs
	cleanup.procs, cleanup.dirs = nil, nil
	cleanup.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// installSignalCleanup kills the children and removes temp dirs when the
// benchmark itself is interrupted.
func installSignalCleanup() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cleanupAll()
		os.Exit(130)
	}()
}

// tempDir creates a directory under buildDir that cleanupAll removes.
func tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(buildDir, prefix)
	if err != nil {
		return "", err
	}
	cleanup.Lock()
	cleanup.dirs = append(cleanup.dirs, d)
	cleanup.Unlock()
	return d, nil
}

// buildServer compiles cmd/quepa-server from the working tree.
func buildServer() (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "quepa-server")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin := filepath.Join(buildDir, "quepa-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/quepa-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/quepa-server: %v\n%s", err, out)
	}
	return bin, nil
}

// freePorts reserves n distinct loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// tailBuffer keeps the last bytes a child wrote to stderr.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// serverProc is one spawned quepa-server.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *tailBuffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

// spawn starts one server process listening on httpPort.
func spawn(bin string, httpPort int, extra ...string) (*serverProc, error) {
	args := append([]string{
		"-addr", "127.0.0.1:" + strconv.Itoa(httpPort),
		"-scale", strconv.Itoa(serverScale), "-replicas", "0", "-log-level", "error",
	}, extra...)
	p := &serverProc{
		cmd:    exec.Command(bin, args...),
		base:   "http://127.0.0.1:" + strconv.Itoa(httpPort),
		stderr: &tailBuffer{},
		exited: make(chan struct{}),
	}
	p.cmd.Stderr = p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	cleanup.Lock()
	cleanup.procs = append(cleanup.procs, p)
	cleanup.Unlock()
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// kill stops the process and waits until it has ended.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// dead reports the process's exit as an error carrying its stderr tail, or
// nil while it is still running.
func (p *serverProc) dead() error {
	select {
	case <-p.exited:
		return fmt.Errorf("server pid %d died (%v); stderr tail:\n%s", p.cmd.Process.Pid, p.err, p.stderr)
	default:
		return nil
	}
}

// waitHealthy polls /healthz until every process answers 200.
func waitHealthy(procs []*serverProc, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for _, p := range procs {
		for {
			if err := p.dead(); err != nil {
				return err
			}
			resp, err := client.Get(p.base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("server %s not healthy after %v; stderr tail:\n%s", p.base, timeout, p.stderr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// deployment is the set of server processes one workload runs against; load
// goes to procs[0].
type deployment struct {
	procs  []*serverProc
	setupS float64
}

// deploy spawns the servers a workload needs and waits for all of them:
// one process, three -cluster peers for cluster_keyed, a -data-dir server
// for explore_mutate. setupS is first spawn to last /healthz 200.
func deploy(bin, workloadName string) (*deployment, error) {
	start := time.Now()
	n := 1
	if workloadName == clusterKeyed {
		n = clusterPeers
	}
	ports, err := freePorts(2 * n) // n HTTP ports, then n wire ports (cluster only)
	if err != nil {
		return nil, err
	}
	extra := make([][]string, n) // each process's flags beyond the common ones
	switch workloadName {
	case clusterKeyed:
		peers := make([]string, n)
		for i := range peers {
			peers[i] = "127.0.0.1:" + strconv.Itoa(ports[n+i])
		}
		for i := range extra {
			extra[i] = []string{"-cluster", strings.Join(peers, ","), "-shard-id", strconv.Itoa(i)}
		}
	case exploreMutate:
		dir, err := tempDir("data-")
		if err != nil {
			return nil, err
		}
		extra[0] = []string{"-data-dir", dir, "-fsync", "interval"}
	}
	d := &deployment{}
	for i, flags := range extra {
		p, err := spawn(bin, ports[i], flags...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, p)
	}
	if err := waitHealthy(d.procs, 90*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	d.setupS = time.Since(start).Seconds()
	return d, nil
}

func (d *deployment) stop() {
	for _, p := range d.procs {
		p.kill()
	}
}

// dead returns the first dead process's report, nil when all are running.
func (d *deployment) dead() error {
	for _, p := range d.procs {
		if err := p.dead(); err != nil {
			return err
		}
	}
	return nil
}

// procUsage is what /proc says about one process.
type procUsage struct {
	cpuSeconds float64 // utime+stime
	hwmMB      float64 // VmHWM, peak resident set
}

// clockTick is USER_HZ; Linux fixes it at 100 for every architecture Go runs on.
const clockTick = 100

// readProc reads /proc/<pid>/stat and /proc/<pid>/status ("self" works too).
func readProc(pid string) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return u, err
	}
	// The command name is parenthesised and may contain spaces; fields are
	// counted from after the closing parenthesis (field 3 is the state).
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("/proc/%s/stat: short line", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("/proc/%s/stat: bad utime/stime", pid)
	}
	u.cpuSeconds = (utime + stime) / clockTick
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return u, fmt.Errorf("/proc/%s/status: bad VmHWM", pid)
			}
			u.hwmMB = kb / 1024
		}
	}
	return u, nil
}

// usage sums readProc over every process of the deployment.
func (d *deployment) usage() (procUsage, error) {
	var sum procUsage
	for _, p := range d.procs {
		u, err := readProc(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return sum, err
		}
		sum.cpuSeconds += u.cpuSeconds
		sum.hwmMB += u.hwmMB
	}
	return sum, nil
}

// scrape fetches and parses one process's /metrics.
func scrape(p *serverProc) (promSamples, error) {
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
