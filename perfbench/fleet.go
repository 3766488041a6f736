package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"privmem/internal/attack/niom"
	"privmem/internal/fleet"
	"privmem/internal/hmm"
	"privmem/internal/home"
	"privmem/internal/meter"

	"privmem/perfbench/check"
)

const (
	fleetHomes = 200_000
	fleetDays  = 7
	// invarianceHomes sizes the untimed check, in every untraced run, that
	// the summary is the same at 1 and nproc workers.
	invarianceHomes = 10_000
	// probeHomes sizes the traced run's one-worker and heap measurements.
	probeHomes = 30_000
)

// fleetSpec is the fleet-200k spec: default mix and variants, seeded by
// the workload seed.
func fleetSpec(seed int64, homes, workers int) fleet.Spec {
	s := fleet.DefaultSpec()
	s.Seed = seed
	s.Homes = homes
	s.Days = fleetDays
	s.Workers = workers
	return s
}

func setupFleet(r *run) error {
	return fleetSpec(r.baseSeed, fleetHomes, r.nproc).Validate()
}

// render returns a summary's bytes with the worker count normalized, so
// runs at different worker counts can be compared.
func render(res *fleet.Result) ([]byte, error) {
	c := *res
	c.Workers = 0
	var b bytes.Buffer
	err := c.Render(&b)
	return b.Bytes(), err
}

// runFleet measures fleet.Run over 200,000 homes and 7 days. A round is one
// run; every home counts as one operation.
func runFleet(r *run) {
	spec := fleetSpec(r.baseSeed, fleetHomes, r.nproc)
	var walls, cpus []float64
	var res *fleet.Result
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin).Seconds() < r.seconds; round++ {
		if round > 0 {
			res = nil
			settle()
		}
		w := openWindow()
		var err error
		res, err = fleet.Run(spec)
		walls = append(walls, w.wall())
		cpus = append(cpus, w.cpuUsed())
		r.attempted += spec.Homes
		if err != nil {
			r.failed += spec.Homes
			r.fail(fmt.Errorf("fleet: %w", err))
		}
	}
	wall := median(walls)
	r.set("wall_s", wall, "s")
	r.set("cpu_s", median(cpus), "s")
	r.set("ops_per_s", float64(spec.Homes)/wall, "1/s")
	r.infof("fleet-200k: %d round(s), homes_per_s %.1f", len(walls), float64(spec.Homes)/wall)
	if res == nil {
		return
	}
	r.checkFleet(res, spec)
	r.fail(fleetInvariance(r.baseSeed, invarianceHomes, r.nproc))
}

// checkFleet checks one summary and compares its bytes with earlier runs
// at this seed (the traced run computes it at one worker).
func (r *run) checkFleet(res *fleet.Result, spec fleet.Spec) {
	r.fail(check.Fleet(res, spec.Homes))
	out, err := render(res)
	if err != nil {
		r.fail(err)
		return
	}
	r.fail(r.record(fmt.Sprintf("fleet-%d-seed%d", spec.Homes, spec.Seed), digestOf(out)))
}

// fleetInvariance checks that the summary of a smaller population is
// byte-identical at 1 and nproc workers.
func fleetInvariance(seed int64, homes, nproc int) error {
	var outs [2][]byte
	for i, w := range []int{1, nproc} {
		res, err := fleet.Run(fleetSpec(seed, homes, w))
		if err != nil {
			return fmt.Errorf("fleet invariance: %w", err)
		}
		if outs[i], err = render(res); err != nil {
			return err
		}
	}
	if !bytes.Equal(outs[0], outs[1]) {
		return fmt.Errorf("fleet invariance: %d-home summary differs between 1 and %d workers", homes, nproc)
	}
	return nil
}

// heapSampler records the peak of live heap objects while a run is going.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// traceFleet replays fleet-200k in a span when it is the requested
// workload, then measures a smaller population of the same spec at nproc
// workers (live heap per home) and at one worker (throughput and scaling
// efficiency; the two summaries must be byte-identical), and probes the
// per-home streaming kernels. It returns the replay's wall time.
func traceFleet(r *run) float64 {
	replay := 0.0
	if r.workload == "fleet-200k" {
		spec := fleetSpec(r.baseSeed, fleetHomes, r.nproc)
		var res *fleet.Result
		var err error
		replay, err = r.tr.do("fleet.run", 0, func(int) error {
			res, err = fleet.Run(spec)
			return err
		})
		r.attempted += spec.Homes
		if err != nil {
			r.failed += spec.Homes
			r.fail(fmt.Errorf("fleet: %w", err))
		} else {
			r.checkFleet(res, spec)
		}
		res = nil
		settle()
	}

	spec := fleetSpec(r.baseSeed, probeHomes, r.nproc)
	base := readHeapObjects()
	hs := startHeapSampler()
	var outs [2][]byte
	var res *fleet.Result
	var err error
	d, err := r.tr.do("fleet.run_probe", 0, func(int) error {
		res, err = fleet.Run(spec)
		return err
	})
	peak := hs.finish()
	if err == nil {
		outs[0], err = render(res)
	}
	if err != nil {
		r.fail(fmt.Errorf("fleet probe: %w", err))
		return replay
	}
	rate := float64(spec.Homes) / d
	r.set("fleet.homes_per_s", rate, "1/s")
	r.set("fleet.heap_bytes_per_home", float64(peak-min(base, peak))/float64(spec.Homes), "B/home")
	res = nil
	settle()

	spec.Workers = 1
	d1, err := r.tr.do("fleet.run_w1", 0, func(int) error {
		res, err = fleet.Run(spec)
		return err
	})
	if err == nil {
		outs[1], err = render(res)
	}
	if err != nil {
		r.fail(fmt.Errorf("fleet w1: %w", err))
		return replay
	}
	if !bytes.Equal(outs[0], outs[1]) {
		r.fail(fmt.Errorf("fleet: %d-home summary differs between 1 and %d workers", probeHomes, r.nproc))
	}
	w1Rate := float64(spec.Homes) / d1
	r.set("fleet.w1_homes_per_s", w1Rate, "1/s")
	r.set("fleet.scaling_eff", rate/(float64(r.nproc)*w1Rate), "ratio")
	res = nil
	settle()
	r.fail(probeStreams(r, spec))
	return replay
}

func readHeapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// probeStreams times one fleet step's kernels: a single-day home
// simulation, and a push into the NIOM stream and the FHMM stream decoder
// over that day's metered trace.
func probeStreams(r *run, spec fleet.Spec) error {
	parent := r.tr.begin("probes.fleet-200k", 0, 0)
	defer r.tr.end(parent)
	cfg := home.DefaultConfig(spec.Seed)
	cfg.Days = 1
	cfg.Step = time.Minute
	const sims = 9
	var days []float64
	var tr *home.Trace
	for i := 0; i < sims; i++ {
		cfg.Seed = spec.Seed + int64(i)
		d, err := r.tr.do("home.simulate_day", parent, func(int) error {
			var err error
			tr, err = home.Simulate(cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe streams: %w", err)
		}
		days = append(days, d*1e3)
	}
	r.set("home.simulate_day_ms", median(days), "ms")

	agg, err := meter.Read(meter.Config{Seed: spec.Seed, Interval: spec.Step, QuantizationW: 1}, tr.Aggregate)
	if err != nil {
		return fmt.Errorf("probe streams: %w", err)
	}
	const rounds = 20_000
	stream, err := niom.NewStream(niom.Config{Window: spec.Window}, spec.Step, spec.History, niom.ModeThreshold)
	if err != nil {
		return fmt.Errorf("probe streams: %w", err)
	}
	sc := &niom.Scratch{}
	n := 0
	d, _ := r.tr.do("niom.stream_push", parent, func(int) error {
		for i := 0; i < rounds; i++ {
			for _, v := range agg.Values {
				stream.Push(v, sc)
				n++
			}
		}
		return nil
	})
	r.set("niom.stream_push_ns", d*1e9/float64(n), "ns")

	f, err := hmm.NewFactorial([]*hmm.Model{
		{Initial: []float64{0.6, 0.4}, Trans: [][]float64{{0.85, 0.15}, {0.3, 0.7}}, Means: []float64{35, 160}, Stds: []float64{20, 45}},
		{Initial: []float64{0.7, 0.3}, Trans: [][]float64{{0.9, 0.1}, {0.25, 0.75}}, Means: []float64{0, 530}, Stds: []float64{30, 70}},
	}, 60)
	if err != nil {
		return fmt.Errorf("probe streams: %w", err)
	}
	dec, err := f.NewStreamDecoder(int(spec.Window / spec.Step))
	if err != nil {
		return fmt.Errorf("probe streams: %w", err)
	}
	n = 0
	d, _ = r.tr.do("hmm.stream_push", parent, func(int) error {
		for i := 0; i < rounds; i++ {
			for _, v := range agg.Values {
				dec.Push(v)
				n++
			}
		}
		return nil
	})
	r.set("hmm.stream_push_ns", d*1e9/float64(n), "ns")
	return nil
}
