package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"privmem/internal/experiments"
	"privmem/internal/serve"

	"privmem/perfbench/check"
)

const (
	// hitRequests is the size of one round's hit phase, over all
	// connections. The request multiset is fixed (see newServePlan), so
	// every round attempts the same operations and fails the same ones.
	hitRequests = 40_000
	zipfS       = 1.3
)

// popSeeds are the population seeds of the served reports.
var popSeeds = []int64{0, 1}

// key is one served report: an experiment id at a population seed, quick
// scale.
type key struct {
	id   string
	seed int64
}

func (k key) opts() experiments.Options {
	return experiments.Options{Seed: k.seed, SeedSet: true, Quick: true}
}
func (k key) path() string   { return fmt.Sprintf("/v1/report/%s?quick=true&seed=%d", k.id, k.seed) }
func (k key) String() string { return k.opts().CacheKey(k.id) }

// population returns the 16 paper ids × population seeds, id-major. The
// order is the Zipf rank order of the hit phase: rank 1 is f1 at seed 0.
func population() []key {
	var keys []key
	for _, id := range experiments.IDs() {
		for _, s := range popSeeds {
			keys = append(keys, key{id, s})
		}
	}
	return keys
}

// zipfCounts splits total requests over n ranks in proportion to
// rank^-s, by largest remainder, so the counts are exact and fixed.
func zipfCounts(n, total int, s float64) []int {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	counts := make([]int, n)
	rem := make([]int, n)
	given := 0
	for i := range w {
		exact := float64(total) * w[i] / sum
		counts[i] = int(exact)
		given += counts[i]
		rem[i] = i
		w[i] = exact - float64(counts[i])
	}
	sort.SliceStable(rem, func(a, b int) bool { return w[rem[a]] > w[rem[b]] })
	for i := 0; given < total; i++ {
		counts[rem[i]]++
		given++
	}
	return counts
}

// servePlan is one round's generated input: the fill order over the
// population and each connection's hit-phase sequence of key indices.
type servePlan struct {
	keys []key
	fill []int
	hits [][]int
}

// newServePlan draws the fill order and the hit sequences from seed. Every
// connection sends the same fixed Zipf multiset, its share of hitRequests
// split per rank; the seed only orders each sequence.
func newServePlan(seed int64, conns int) servePlan {
	rng := rand.New(rand.NewSource(seed))
	keys := population()
	p := servePlan{keys: keys, fill: rng.Perm(len(keys))}
	counts := zipfCounts(len(keys), hitRequests/conns, zipfS)
	for c := 0; c < conns; c++ {
		var seq []int
		for rank, n := range counts {
			for j := 0; j < n; j++ {
				seq = append(seq, rank)
			}
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		p.hits = append(p.hits, seq)
	}
	return p
}

func (p servePlan) hitCount() int {
	n := 0
	for _, seq := range p.hits {
		n += len(seq)
	}
	return n
}

// daemon is one in-process memoird on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

func startDaemon(st *serve.Store, nproc int, tr *tracer) (*daemon, error) {
	srv := serve.New(serve.Config{Store: st, MaxConcurrent: nproc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler(tr, h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// tracedHandler opens a server-side span per request, parented to the
// client span named in the request headers.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.Atoi(req.Header.Get("X-Bench-Span"))
		reqID, _ := strconv.ParseInt(req.Header.Get("X-Bench-Req"), 10, 64)
		id := tr.begin("serve.handler", parent, reqID)
		h.ServeHTTP(w, req)
		tr.end(id)
	})
}

// conn is one client connection: a transport limited to one connection.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// reply is one request's outcome.
type reply struct {
	status int
	body   []byte
	ms     float64
}

func get(c *http.Client, base string, k key, tr *tracer, parent int, reqID int64) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, base+k.path(), nil)
	if err != nil {
		return reply{}, err
	}
	sid := tr.begin("client.get", parent, reqID)
	if tr != nil {
		req.Header.Set("X-Bench-Span", strconv.Itoa(sid))
		req.Header.Set("X-Bench-Req", strconv.FormatInt(reqID, 10))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		tr.end(sid)
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	tr.end(sid)
	return reply{resp.StatusCode, body, ms}, err
}

// counters is a snapshot of the server counters the benchmark reports.
type counters struct {
	requests, generations, hits, misses, coalesced, storeLoads int64
}

func snapshot(m *serve.Metrics) counters {
	return counters{m.ReportRequests.Load(), m.Generations.Load(), m.CacheHits.Load(), m.CacheMisses.Load(),
		m.Coalesced.Load(), m.StoreLoads.Load()}
}

// roundResult is what one fill-restart-hit round measured.
type roundResult struct {
	wall, cpu, hitWall, warmStartMs float64
	fillMs, hitMs                   []float64   // successful requests only
	fillBody                        [][]byte    // by key index; nil when the fill request failed
	failed                          map[int]int // key index -> status of a failed request
	failedReqs                      int
	fillC, hitC                     counters
}

func setupServe(r *run) error {
	dir, err := r.scratch("setup")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(dir)
	if err != nil {
		return err
	}
	_ = newServePlan(r.seed, r.nproc)
	d, err := startDaemon(st, r.nproc, nil)
	if err != nil {
		return err
	}
	resp, err := newConn().Get(d.base + "/healthz")
	if err == nil {
		resp.Body.Close()
	}
	return errors.Join(err, d.stop())
}

// serveRound runs fill, restart and hit against a fresh store. probe, when
// set, runs on the restarted daemon after the timed part.
func serveRound(r *run, plan servePlan, probe func(*daemon, *roundResult) error) (*roundResult, error) {
	dir, err := r.scratch("store")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	n := len(plan.keys)
	res := &roundResult{fillBody: make([][]byte, n), failed: map[int]int{}}
	var mu sync.Mutex // guards res.failed and res.hitMs during the hit phase
	tr := r.tr
	w := openWindow()

	phase := tr.begin("serve.fill", 0, 0)
	d1, err := startDaemon(st, r.nproc, tr)
	if err != nil {
		return nil, err
	}
	c := newConn()
	var reqID int64
	for _, i := range plan.fill {
		reqID++
		rep, err := get(c, d1.base, plan.keys[i], tr, phase, reqID)
		if err != nil {
			d1.stop()
			return nil, fmt.Errorf("fill %s: %w", plan.keys[i], err)
		}
		if rep.status == http.StatusOK {
			res.fillBody[i] = rep.body
			res.fillMs = append(res.fillMs, rep.ms)
		} else {
			res.failed[i] = rep.status
			res.failedReqs++
		}
	}
	res.fillC = snapshot(d1.srv.Metrics())
	if err := d1.stop(); err != nil {
		return nil, err
	}
	tr.end(phase)

	phase = tr.begin("serve.restart", 0, 0)
	t0 := time.Now()
	d2, err := startDaemon(st, r.nproc, tr)
	if err != nil {
		return nil, err
	}
	res.warmStartMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(phase)

	phase = tr.begin("serve.hit", 0, 0)
	hitStart := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(plan.hits))
	for ci, seq := range plan.hits {
		base := reqID
		reqID += int64(len(seq))
		wg.Add(1)
		go func(ci int, seq []int, base int64) {
			defer wg.Done()
			c := newConn()
			ms := make([]float64, 0, len(seq))
			for j, i := range seq {
				rep, err := get(c, d2.base, plan.keys[i], tr, phase, base+int64(j))
				if err != nil {
					errs[ci] = fmt.Errorf("hit %s: %w", plan.keys[i], err)
					return
				}
				if rep.status != http.StatusOK {
					mu.Lock()
					res.failed[i] = rep.status
					res.failedReqs++
					mu.Unlock()
					continue
				}
				if err := check.Body(plan.keys[i].String(), rep.body, res.fillBody[i]); err != nil {
					errs[ci] = fmt.Errorf("after restart: %w", err)
					return
				}
				ms = append(ms, rep.ms)
			}
			mu.Lock()
			res.hitMs = append(res.hitMs, ms...)
			mu.Unlock()
		}(ci, seq, base)
	}
	wg.Wait()
	res.hitWall = time.Since(hitStart).Seconds()
	res.hitC = snapshot(d2.srv.Metrics())
	tr.end(phase)
	res.wall, res.cpu = w.wall(), w.cpuUsed()

	if probe != nil {
		err = probe(d2, res)
	}
	return res, errors.Join(append(errs, err, d2.stop())...)
}

// verifyServe generates every key outside the server, with the world memo
// flushed, and checks each served body against its rendering and each
// failure against the known fault. It returns each key's generation time.
func verifyServe(r *run, plan servePlan, res *roundResult, workers int) []float64 {
	experiments.SetWorldMemo(true)
	settle()
	n := len(plan.keys)
	reps := make([]*experiments.Report, n)
	errs := make([]error, n)
	ms := make([]float64, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := plan.keys[i]
				start := time.Now()
				reps[i], errs[i] = experiments.RunContext(context.Background(), k.id, k.opts().ForExperiment(k.id))
				ms[i] = float64(time.Since(start).Nanoseconds()) / 1e6
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, k := range plan.keys {
		if errs[i] != nil {
			r.fail(fmt.Errorf("direct %s: %w", k, errs[i]))
			continue
		}
		if status, bad := res.failed[i]; bad {
			r.fail(check.ServeFailure(k.String(), status, reps[i]))
			continue
		}
		r.fail(check.Body(k.String(), res.fillBody[i], []byte(reps[i].Render())))
	}
	return ms
}

// runServe measures memoird over whole fill-restart-hit rounds.
func runServe(r *run) {
	plan := newServePlan(r.seed, r.nproc)
	var walls, cpus, rates []float64
	var last *roundResult
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin).Seconds() < r.seconds; round++ {
		if round > 0 {
			experiments.SetWorldMemo(true)
			settle()
		}
		res, err := serveRound(r, plan, nil)
		if err != nil {
			r.fail(err)
			return
		}
		r.attempted += len(plan.keys) + plan.hitCount()
		r.failed += res.failedReqs
		walls = append(walls, res.wall)
		cpus = append(cpus, res.cpu)
		rates = append(rates, float64(plan.hitCount())/res.hitWall)
		last = res
	}
	r.set("wall_s", median(walls), "s")
	r.set("cpu_s", median(cpus), "s")
	r.set("ops_per_s", median(rates), "1/s")
	sort.Float64s(last.fillMs)
	sort.Float64s(last.hitMs)
	r.infof("serve-zipf: %d round(s); last round: miss_p50_ms %.3f (n=%d), hit_rps %.1f, hit_p50_ms %.4f, %s (n=%d), warm_start_ms %.2f, failed keys %v",
		len(walls), median(last.fillMs), len(last.fillMs), median(rates), quantile(last.hitMs, 0.5), tailText(last.hitMs), len(last.hitMs), last.warmStartMs, failedKeys(plan, last))
	verifyServe(r, plan, last, r.nproc)
}

func tailText(sorted []float64) string {
	if label, v, ok := tailQuantile(sorted); ok {
		return fmt.Sprintf("hit_%s_ms %.4f", label, v)
	}
	return "no tail percentile"
}

func failedKeys(plan servePlan, res *roundResult) []string {
	var out []string
	for i, status := range res.failed {
		out = append(out, fmt.Sprintf("%s:%d", plan.keys[i], status))
	}
	sort.Strings(out)
	return out
}

// traceServe replays one round with a span per request, probes the hit
// path and the store on the restarted daemon, and generates every key
// directly on nproc workers (serve.generate_p50_ms and the body check). It
// returns the round's timed wall time.
func traceServe(r *run) float64 {
	plan := newServePlan(r.seed, r.nproc)
	res, err := serveRound(r, plan, func(d *daemon, res *roundResult) error {
		return probeServe(r, d, plan, res)
	})
	if err != nil {
		r.fail(err)
		return 0
	}
	r.attempted += len(plan.keys) + plan.hitCount()
	r.failed += res.failedReqs
	sort.Float64s(res.fillMs)
	sort.Float64s(res.hitMs)
	r.set("serve.miss_p50_ms", median(res.fillMs), "ms")
	r.set("serve.hit_rps", float64(plan.hitCount())/res.hitWall, "1/s")
	r.set("serve.hit_p50_ms", quantile(res.hitMs, 0.5), "ms")
	r.set("serve.hit_p99_ms", quantile(res.hitMs, 0.99), "ms")
	r.set("serve.warm_start_ms", res.warmStartMs, "ms")
	// Counters that are zero by construction are left out: the fill
	// daemon starts on an empty store and serves each key once, and the
	// t12 fault is an encoding failure, not a generation error.
	r.set("serve.fill.generations", float64(res.fillC.generations), "count")
	r.set("serve.fill.cache_misses", float64(res.fillC.misses), "count")
	r.set("serve.hit.generations", float64(res.hitC.generations), "count")
	r.set("serve.hit.cache_hits", float64(res.hitC.hits), "count")
	r.set("serve.hit.cache_misses", float64(res.hitC.misses), "count")
	r.set("serve.hit.coalesced", float64(res.hitC.coalesced), "count")
	r.set("serve.hit.store_loads", float64(res.hitC.storeLoads), "count")
	r.set("serve.hit_ratio", float64(res.hitC.hits)/float64(res.hitC.requests), "ratio")
	gen := verifyServe(r, plan, res, r.nproc)
	r.set("serve.generate_p50_ms", median(gen), "ms")
	return res.wall
}

// probeServe times the hit path without a socket, the cache lookup alone,
// and the store's Put and Get, on the round's own reports.
func probeServe(r *run, d *daemon, plan servePlan, res *roundResult) error {
	parent := r.tr.begin("probes.serve-zipf", 0, 0)
	defer r.tr.end(parent)
	hot := -1
	for i := range plan.keys {
		if res.fillBody[i] != nil {
			hot = i
			break
		}
	}
	if hot < 0 {
		return fmt.Errorf("probe serve: no report was served")
	}
	h := d.srv.Handler()
	const handlerCalls = 20_000
	req := httptest.NewRequest(http.MethodGet, plan.keys[hot].path(), nil)
	dur, _ := r.tr.do("serve.handler_hit", parent, func(int) error {
		for i := 0; i < handlerCalls; i++ {
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		return nil
	})
	r.set("serve.handler_hit_us", dur*1e6/handlerCalls, "us")

	var entries []*serve.Entry
	for i, k := range plan.keys {
		if res.fillBody[i] == nil {
			continue
		}
		// A JSON encoding of the body stands in for the report's own, which
		// the hit path never fetches; the store only needs valid JSON.
		js, err := json.Marshal(map[string]string{"text": string(res.fillBody[i])})
		if err != nil {
			return err
		}
		entries = append(entries, &serve.Entry{Key: k.String(), Text: res.fillBody[i], JSON: js})
	}
	cache := serve.NewCache(256)
	for _, e := range entries {
		cache.Put(e)
	}
	const gets = 1_000_000
	dur, _ = r.tr.do("serve.cache_get", parent, func(int) error {
		for i := 0; i < gets; i++ {
			if _, ok := cache.Get(entries[i%len(entries)].Key); !ok {
				return fmt.Errorf("probe serve: cache lost %s", entries[i%len(entries)].Key)
			}
		}
		return nil
	})
	r.set("serve.cache_get_ns", dur*1e9/gets, "ns")

	dir, err := r.scratch("probe-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(dir)
	if err != nil {
		return err
	}
	var puts, gets2 []float64
	for _, e := range entries {
		start := time.Now()
		if err := st.Put(e); err != nil {
			return fmt.Errorf("probe serve: %w", err)
		}
		puts = append(puts, float64(time.Since(start).Nanoseconds())/1e6)
	}
	for _, e := range entries {
		start := time.Now()
		got, ok, err := st.Get(e.Key)
		gets2 = append(gets2, float64(time.Since(start).Nanoseconds())/1e6)
		if err != nil || !ok {
			return fmt.Errorf("probe serve: store lost %s: %v", e.Key, err)
		}
		if err := check.Body(e.Key, got.Text, e.Text); err != nil {
			return fmt.Errorf("probe serve: store round trip: %w", err)
		}
	}
	r.set("serve.store_put_ms", median(puts), "ms")
	r.set("serve.store_get_ms", median(gets2), "ms")
	return nil
}
