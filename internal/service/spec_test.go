package service

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vcache/internal/machine"
)

func TestResolveDefaults(t *testing.T) {
	r, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Scale.Factor != 1.0 {
		t.Errorf("default scale = %v, want 1.0", r.Spec.Scale.Factor)
	}
	if r.Spec.Kernel.Machine.CPUs != 1 {
		t.Errorf("default cpus = %d, want 1", r.Spec.Kernel.Machine.CPUs)
	}
	if len(r.Key) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", r.Key)
	}
}

// TestContentKeyCanonicalization: the key addresses the resolved
// simulation content, not the request syntax — spelling out a default
// hashes identically to omitting it.
func TestContentKeyCanonicalization(t *testing.T) {
	base, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F"})
	if err != nil {
		t.Fatal(err)
	}
	defaultPurge := uint64(7) // the HP 720 profile's LinePurgeHit
	spelled, err := Resolve(RunRequest{
		Workload: "kernel-build", Config: "F", Scale: 1.0, CPUs: 1, Frames: 1024,
		Timing: &TimingOverride{LinePurgeHit: &defaultPurge},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Key != spelled.Key {
		t.Errorf("explicit defaults changed the content key:\n%s\nvs\n%s", base.Key, spelled.Key)
	}
	// Requests differing only in timeout are the same content.
	timed, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F", TimeoutMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if base.Key != timed.Key {
		t.Errorf("timeout_ms changed the content key")
	}
	// A real content change must change the key.
	fast := uint64(1)
	other, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F",
		Timing: &TimingOverride{LinePurgeHit: &fast}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Key == other.Key {
		t.Errorf("timing override did not change the content key")
	}
	scaled, err := Resolve(RunRequest{Workload: "kernel-build", Config: "F", Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if base.Key == scaled.Key {
		t.Errorf("scale change did not change the content key")
	}
}

func TestResolveValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  RunRequest
		want string
	}{
		{"missing workload", RunRequest{Config: "F"}, "missing workload"},
		{"unknown workload", RunRequest{Workload: "x", Config: "F"}, "unknown workload"},
		{"missing config", RunRequest{Workload: "kernel-build"}, "missing config"},
		{"unknown config", RunRequest{Workload: "kernel-build", Config: "Z"}, "unknown config"},
		{"negative scale", RunRequest{Workload: "kernel-build", Config: "F", Scale: -0.5}, "scale"},
		{"NaN scale", RunRequest{Workload: "kernel-build", Config: "F", Scale: math.NaN()}, "scale"},
		{"infinite scale", RunRequest{Workload: "kernel-build", Config: "F", Scale: math.Inf(1)}, "scale"},
		{"negative infinite scale", RunRequest{Workload: "kernel-build", Config: "F", Scale: math.Inf(-1)}, "scale"},
		{"bad cpus", RunRequest{Workload: "kernel-build", Config: "F", CPUs: -1}, "cpus"},
		{"too many cpus", RunRequest{Workload: "kernel-build", Config: "F", CPUs: machine.MaxCPUs + 1}, "cpus"},
		{"bad frames", RunRequest{Workload: "kernel-build", Config: "F", Frames: -4}, "frames"},
		{"bad timeout", RunRequest{Workload: "kernel-build", Config: "F", TimeoutMS: -1}, "timeout_ms"},
	} {
		_, err := Resolve(tc.req)
		if err == nil {
			t.Errorf("%s: Resolve accepted %+v", tc.name, tc.req)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCPUBoundRejected: a /run asking for more than machine.MaxCPUs
// processors is a 400, answered before any simulation state exists.
func TestCPUBoundRejected(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	status, _, body := postRun(t, srv, RunRequest{Workload: "kernel-build", Config: "F", CPUs: machine.MaxCPUs + 1})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, body)
	}
	if !strings.Contains(string(body), "cpus") {
		t.Errorf("error does not name the field: %s", body)
	}
	if snap := svc.Metrics(); snap.RejectedInvalid != 1 || snap.RunsStarted != 0 {
		t.Fatalf("expected 1 invalid rejection and no runs, got %d / %d",
			snap.RejectedInvalid, snap.RunsStarted)
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("aa"))
	c.put("b", []byte("bb"))
	if _, ok := c.get("a"); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	c.put("c", []byte("cc")) // evicts b, the LRU entry
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 hits / 1 miss", st)
	}
	if st.Bytes != 4 {
		t.Fatalf("bytes = %d, want 4", st.Bytes)
	}
	// Overwrite keeps byte accounting straight.
	c.put("a", []byte("aaaa"))
	if st := c.stats(); st.Bytes != 6 {
		t.Fatalf("bytes after overwrite = %d, want 6", st.Bytes)
	}
}

// TestResolvePeerBackendLabels: the peer backend configurations are
// reachable through the service's config label, and resolve to content
// keys distinct from each other and from configuration F — a cached F
// result must never answer an RLT request.
func TestResolvePeerBackendLabels(t *testing.T) {
	keys := make(map[string]string)
	for _, label := range []string{"F", "RLT", "HYB"} {
		r, err := Resolve(RunRequest{Workload: "kernel-build", Config: label})
		if err != nil {
			t.Fatalf("Resolve(%s): %v", label, err)
		}
		if r.Spec.Config.Label != label {
			t.Errorf("resolved label = %s, want %s", r.Spec.Config.Label, label)
		}
		for other, k := range keys {
			if k == r.Key {
				t.Errorf("%s and %s share a content key", label, other)
			}
		}
		keys[label] = r.Key
	}
}
