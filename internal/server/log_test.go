package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/telemetry"
)

// TestLogLevelErrorSilencesAssembly: every line the server logs goes
// through the structured logger, so -log-level error silences what New
// reports at info level (index load, data dir seed, trace log, wire
// loopback, pprof, burn-rate alerting, the serving banner), and nothing
// reaches the standard log package. Close stops every goroutine New
// started before the buffers are read.
func TestLogLevelErrorSilencesAssembly(t *testing.T) {
	var std, structured bytes.Buffer
	log.SetOutput(&std)
	defer log.SetOutput(os.Stderr)
	telemetry.SetLogOutput(&structured)
	defer telemetry.SetLogOutput(os.Stderr)
	defer telemetry.SetLogLevel(telemetry.DefaultLogger().Level())
	defer telemetry.DefaultTracer().SetSlowThreshold(telemetry.DefaultSlowThreshold)

	dir := t.TempDir()
	built := smallWorkload(t)
	indexPath := filepath.Join(dir, "a.qpck")
	f, err := os.Create(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aindex.WriteSnapshot(f, built.Index.Edges(), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := New(Config{
		Workload:     built,
		IndexPath:    indexPath,
		DataDir:      filepath.Join(dir, "data"),
		Fsync:        "off",
		Wire:         true,
		Debug:        true,
		TraceLog:     filepath.Join(dir, "traces.jsonl"),
		SLOSearchP99: time.Second,
		LogLevel:     "error",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := std.String(); got != "" {
		t.Errorf("standard log output at -log-level error:\n%s", got)
	}
	if got := structured.String(); got != "" {
		t.Errorf("structured log output at -log-level error:\n%s", got)
	}
}

// TestTraceLogExportsAndDetaches: with -trace-log every kept trace lands in
// the file as one JSON line, and Close takes the sink off the process-wide
// tracer before closing it, so a trace kept afterwards is not counted as
// dropped by the closed file.
func TestTraceLogExportsAndDetaches(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	defer telemetry.DefaultTracer().SetSlowThreshold(telemetry.DefaultSlowThreshold)

	path := filepath.Join(t.TempDir(), "traces.jsonl")
	s, err := New(Config{Workload: smallWorkload(t), TraceLog: path, Slow: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	search := "/search?db=transactions&level=1&q=" + url.QueryEscape("SELECT * FROM inventory WHERE seq < 2")
	if code, body := do(t, s, "GET", search); code != http.StatusOK {
		t.Fatalf("search = %d %v", code, body)
	}
	sink := s.traceLog
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var root telemetry.SpanJSON
		if err := json.Unmarshal(line, &root); err != nil {
			t.Fatalf("trace log line %q: %v", line, err)
		}
		if root.Name == "http /search" {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("trace log holds %d /search root spans, want 1:\n%s", roots, data)
	}

	if code, body := do(t, s, "GET", search); code != http.StatusOK {
		t.Fatalf("search after Close = %d %v", code, body)
	}
	if n := sink.Dropped(); n != 0 {
		t.Errorf("closed trace log counted %d dropped traces: the tracer still exports to it", n)
	}
}
