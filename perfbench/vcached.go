package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vcache/internal/harness"
	"vcache/internal/service"
	"vcache/internal/sim"
)

// vcached drives an in-process simulation service on a loopback
// listener with a closed loop of one client per host CPU. Every pass
// starts a fresh daemon and sends the same list of 200 requests,
// generated from the seed, in three classes:
//
//   - repeats of a hot spec, served from the result cache;
//   - traced repeats of a hot spec, which skip the result cache and
//     warm-boot from the snapshot pool;
//   - new small-scale specs, each requested once, which cold-boot.
//
// The shape follows `vcached -selftest`: 200 requests, of which a
// fraction 0.8 repeat a hot spec. The selftest's hot requests are all
// plain repeats; here one in five is a traced repeat, so the snapshot
// pool's warm boot is exercised too. The 0.2 that are cold are the
// first request of each hot spec and the new specs, which cover every
// workload under every configuration rather than the selftest's
// kernel-build under A alone. The selftest's eight clients are cut to
// one per host CPU.
//
// A prime section requests each hot spec once (cold) and completes
// before the rest is sent, so every later request's class is fixed by
// the list, not by the race between clients.
type vcached struct {
	clients int
	prime   []service.RunRequest
	main    []service.RunRequest
}

const (
	hotScale   = 0.1
	newScale   = 0.05
	hotRepeats = 16 // untraced repeats per hot spec
	hotTraced  = 4  // traced repeats per hot spec
	poolImages = 16 // snapshot pool capacity: the hot images plus recent new ones
)

func newVcached(seed uint64) *vcached {
	r := newRand(seed ^ 0x7cac4ed)
	v := &vcached{clients: runtime.GOMAXPROCS(0)}
	stress := func() string { return fmt.Sprintf("stress-%d", r.next()%1_000_000) }
	// Hot specs: the four workloads under two of the cheap-and-similar
	// configurations, so the seed changes identities, not cost.
	cheap := []string{"E", "F", "RLT", "HYB"}
	r.shuffle(len(cheap), func(i, j int) { cheap[i], cheap[j] = cheap[j], cheap[i] })
	for _, cfg := range cheap[:2] {
		for _, w := range []string{"afs-bench", "latex-paper", "kernel-build", stress()} {
			v.prime = append(v.prime, service.RunRequest{Workload: w, Config: cfg, Scale: hotScale})
		}
	}
	var main []service.RunRequest
	trace := 0
	for _, h := range v.prime {
		for i := 0; i < hotRepeats; i++ {
			main = append(main, h)
		}
		for i := 0; i < hotTraced; i++ {
			// A distinct event count per traced request keeps concurrent
			// traced repeats from collapsing into one backing run.
			trace++
			t := h
			t.Trace = trace
			main = append(main, t)
		}
	}
	// New specs: every workload under every configuration once, at a
	// scale made unique by a seeded jitter that no hot spec shares.
	jitter := make([]int, 1000)
	for i := range jitter {
		jitter[i] = i + 1
	}
	r.shuffle(len(jitter), func(i, j int) { jitter[i], jitter[j] = jitter[j], jitter[i] })
	n := 0
	for _, cfg := range []string{"A", "B", "C", "D", "E", "F", "RLT", "HYB"} {
		for _, w := range []string{"afs-bench", "latex-paper", "kernel-build", stress()} {
			main = append(main, service.RunRequest{Workload: w, Config: cfg, Scale: newScale + float64(jitter[n])*1e-6})
			n++
		}
	}
	r.shuffle(len(main), func(i, j int) { main[i], main[j] = main[j], main[i] })
	v.main = main
	return v
}

// svcStats is the service's own view of one pass.
type svcStats struct {
	snap   service.Snapshot
	served map[string]int // hit, warm, cold, shared
}

// reply is one completed request as the client saw it.
type reply struct {
	status  int
	body    []byte
	outcome string
	phases  map[string]float64 // ms, from X-Vcache-Phases
	latency time.Duration
	err     error
}

func (v *vcached) pass(tr *passTrace) *pass {
	p := &pass{svc: &svcStats{served: map[string]int{}}}
	start := time.Now()
	svc := service.New(service.Config{MaxConcurrent: v.clients, SnapshotPool: poolImages})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.attempted++
		p.fail("listen: %v", err)
		return p
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: v.clients},
	}
	url := "http://" + ln.Addr().String() + "/run"
	p.setup = time.Since(start)

	replies := append(v.drive(client, url, v.prime, tr, 0), v.drive(client, url, v.main, tr, len(v.prime))...)

	p.svc.snap = svc.Metrics()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		p.fail("http shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		p.fail("serve: %v", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		p.fail("service shutdown: %v", err)
	}
	client.CloseIdleConnections()

	reqs := append(append([]service.RunRequest(nil), v.prime...), v.main...)
	p.bodies = make(map[string][]byte)
	for i, rp := range replies {
		v.check(p, reqs[i], rp)
	}
	keys := make([]string, 0, len(p.bodies))
	for k := range p.bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\n%s\n", k, p.bodies[k])
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// drive sends reqs through a closed loop of v.clients clients and
// returns the replies in list order.
func (v *vcached) drive(client *http.Client, url string, reqs []service.RunRequest, tr *passTrace, idBase int) []reply {
	out := make([]reply, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < v.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var sp *simSpans
				if tr != nil {
					sp = tr.sim(idBase+i, class(reqs[i]))
					sp.begin("client.request")
				}
				out[i] = post(client, url, reqs[i])
				if sp != nil {
					sp.end()
				}
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

func class(r service.RunRequest) string {
	switch {
	case r.Trace > 0:
		return "traced-repeat"
	case r.Scale == hotScale:
		return "repeat"
	default:
		return "new"
	}
}

func post(client *http.Client, url string, req service.RunRequest) reply {
	b, err := json.Marshal(req)
	if err != nil {
		return reply{err: err}
	}
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return reply{err: err, latency: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp := reply{status: resp.StatusCode, body: body, err: err, latency: time.Since(start)}
	rp.outcome = resp.Header.Get("X-Vcache-Outcome")
	rp.phases = parsePhases(resp.Header.Get("X-Vcache-Phases"))
	return rp
}

// parsePhases reads "resolve=0.012ms boot=1.234ms ..." into a map of
// milliseconds.
func parsePhases(h string) map[string]float64 {
	m := map[string]float64{}
	for _, f := range strings.Fields(h) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		if x, err := strconv.ParseFloat(strings.TrimSuffix(v, "ms"), 64); err == nil {
			m[k] = x
		}
	}
	return m
}

// runBody is the part of a /run response the benchmark checks.
type runBody struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// check validates one reply and folds it into the pass.
func (v *vcached) check(p *pass, req service.RunRequest, rp reply) {
	p.attempted++
	if rp.err != nil {
		p.fail("%s/%s: %v", req.Workload, req.Config, rp.err)
		return
	}
	if rp.status != http.StatusOK {
		p.fail("%s/%s: status %d: %s", req.Workload, req.Config, rp.status, bytes.TrimSpace(rp.body))
		return
	}
	var rb runBody
	if err := json.Unmarshal(rp.body, &rb); err != nil {
		p.fail("%s/%s: decode response: %v", req.Workload, req.Config, err)
		return
	}
	res, err := decodeResult(rb.Result)
	if err != nil {
		p.fail("%s/%s: decode result: %v", req.Workload, req.Config, err)
		return
	}
	if err := res.CheckClean(); err != nil {
		p.violations += res.OracleViolations
		p.fail("%v", err)
		return
	}
	if prev, ok := p.bodies[rb.Key]; ok && !bytes.Equal(prev, rb.Result) {
		p.fail("%s/%s: key %s served two different results", req.Workload, req.Config, rb.Key)
		return
	}
	p.bodies[rb.Key] = rb.Result

	ph := rp.phases
	switch {
	case rp.outcome == service.OutcomeHit:
		p.svc.served["hit"]++
	case rp.outcome == service.OutcomeShared:
		p.svc.served["shared"]++
	case ph["boot"] > 0:
		p.svc.served["cold"]++
	default:
		p.svc.served["warm"]++
	}
	if rp.outcome != service.OutcomeMiss {
		p.ops = append(p.ops, op{latency: rp.latency})
		return
	}
	// This request owned its backing run: count the simulation once.
	p.addSim(res, harness.Phases{
		Boot:    msDur(ph["boot"]),
		Setup:   msDur(ph["setup"]),
		Restore: msDur(ph["restore"]),
		Run:     msDur(ph["run"]),
		Collect: msDur(ph["collect"]),
	}, rp.latency)
	var server float64
	for _, x := range ph {
		server += x
	}
	p.queueWait = append(p.queueWait, float64(rp.latency)/1e6-server)
}

// decodeResult reads a served Result. CyclesBy is keyed by category
// name on the wire, so it is decoded separately.
func decodeResult(b []byte) (harness.Result, error) {
	var wire struct {
		harness.Result
		CyclesBy map[string]uint64
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		return harness.Result{}, err
	}
	res := wire.Result
	res.CyclesBy = make(map[sim.Category]uint64, len(wire.CyclesBy))
	for _, c := range simCategories {
		res.CyclesBy[c] = wire.CyclesBy[c.String()]
	}
	return res, nil
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// verify re-executes one spec of each class directly through
// harness.Exec and checks that the service returned a byte-identical
// result for it. Every response for a key carries the same result bytes
// (check enforces that), so this covers the traced repeats too. It runs
// outside every timed pass.
func (v *vcached) verify(seed uint64, p *pass) {
	r := newRand(seed ^ 0x0e71f)
	for _, want := range []string{"repeat", "traced-repeat", "new"} {
		var pool []service.RunRequest
		for _, q := range v.main {
			if class(q) == want {
				pool = append(pool, q)
			}
		}
		q := pool[r.intn(len(pool))]
		p.attempted++
		res, err := service.Resolve(q)
		if err != nil {
			p.fail("verify %s/%s: %v", q.Workload, q.Config, err)
			continue
		}
		direct, _, err := harness.Exec(res.Spec)
		if err != nil {
			p.fail("verify %s/%s: direct exec: %v", q.Workload, q.Config, err)
			continue
		}
		want, err := json.Marshal(direct)
		if err != nil {
			p.fail("verify %s/%s: encode: %v", q.Workload, q.Config, err)
			continue
		}
		if !bytes.Equal(want, p.bodies[res.Key]) {
			p.fail("verify %s/%s: service result differs from a direct harness.Exec", q.Workload, q.Config)
		}
	}
}
