package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"quepa/internal/core"
	"quepa/internal/server"
	"quepa/internal/wal"
	"quepa/internal/workload"
)

// TestServerCrashRecovery SIGKILLs a live, serving quepa-server process in
// the middle of a write load and verifies the recovered index is exactly the
// state after some committed prefix of the load — at least everything the
// child acknowledged before dying. The child is this same test binary
// re-executed with QUEPA_SERVER_CRASH_CHILD set (the standard re-exec
// pattern), running the server main assembles with -fsync always, so every
// acknowledged mutation is on stable storage.
//
// `make crashtest` and the CI crash job run exactly this plus the WAL-level
// kill test in internal/wal.
func TestServerCrashRecovery(t *testing.T) {
	if dir := os.Getenv("QUEPA_SERVER_CRASH_CHILD"); dir != "" {
		serverCrashChild(dir)
		return
	}
	if testing.Short() {
		t.Skip("re-exec crash test skipped in -short")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestServerCrashRecovery$", "-test.v")
	cmd.Env = append(os.Environ(), "QUEPA_SERVER_CRASH_CHILD="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Follow the child's progress: its listen address first, then one
	// "committed N" per durable mutation. Kill once it is demonstrably
	// serving traffic AND has committed a healthy batch.
	var addr string
	seen := -1
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "listening "); ok {
			addr = rest
			continue
		}
		var n int
		if _, err := fmt.Sscanf(line, "committed %d", &n); err == nil {
			seen = n
			if seen >= 30 && addr != "" {
				break
			}
		}
	}
	if addr == "" || seen < 30 {
		cmd.Wait()
		t.Fatalf("child never got going (addr=%q, seen=%d)", addr, seen)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("child not serving while loading: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("child /healthz = %d mid-load", resp.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; exit status is the kill signal, not an error here

	// Recover and find the committed prefix the durable state corresponds to.
	m, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer m.Abort()
	if !m.Recovered() {
		t.Fatal("nothing recovered after SIGKILL")
	}
	base := smallWorkload(t).Index // the same deterministic spec the child serves
	got := m.Index().Edges()
	k := -1
	for i := 0; i <= seen+5000; i++ {
		if reflect.DeepEqual(base.Edges(), got) {
			k = i
			break
		}
		if err := base.Insert(crashRel(i)); err != nil {
			t.Fatal(err)
		}
	}
	if k < 0 {
		t.Fatalf("recovered index matches no committed prefix (child acked %d)", seen)
	}
	// fsync=always: every acknowledged op must have survived. k counts ops
	// applied; the child acked op seen, so at least seen+1 ops are durable.
	if k < seen+1 {
		t.Fatalf("recovered prefix %d < acknowledged %d", k, seen+1)
	}
	t.Logf("child acked %d ops, recovery found prefix %d", seen+1, k)
}

// crashRel is the deterministic write load: distinct identity relations, so
// every op grows the index and prefixes are distinguishable.
func crashRel(i int) core.PRelation {
	return core.NewIdentity(
		core.NewGlobalKey("crashdb", "load", fmt.Sprintf("a%d", i)),
		core.NewGlobalKey("crashdb2", "load", fmt.Sprintf("b%d", i)),
		0.5+float64(i%50)/100)
}

// serverCrashChild is the process the parent kills: a durable server with
// fsync=always, assembled by server.New as main assembles it, serving HTTP
// while a mutation load flows through the journaled index. It only returns
// if something is broken — the parent's SIGKILL is the expected exit.
func serverCrashChild(dir string) {
	spec := workload.DefaultSpec()
	spec.Artists = 10
	spec.AlbumsPerArtist = 2
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		fmt.Println("child build:", err)
		os.Exit(1)
	}
	s, err := server.New(server.Config{Workload: built, DataDir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		fmt.Println("child server.New:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("child listen:", err)
		os.Exit(1)
	}
	go http.Serve(ln, s.Handler())
	fmt.Println("listening", ln.Addr())
	for i := 0; i < 1_000_000; i++ {
		if err := built.Index.Insert(crashRel(i)); err != nil {
			fmt.Println("child insert:", err)
			os.Exit(1)
		}
		// A sticky WAL error turns /healthz into a 503 naming it.
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code != http.StatusOK {
			fmt.Println("child healthz:", rec.Body)
			os.Exit(1)
		}
		fmt.Printf("committed %d\n", i)
	}
	time.Sleep(time.Minute) // parent should have killed us long ago
	os.Exit(1)
}
