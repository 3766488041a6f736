package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"privmem/internal/attack/fingerprint"
	"privmem/internal/attack/nilm"
	"privmem/internal/attack/sunspot"
	"privmem/internal/attack/weatherman"
	"privmem/internal/defense/gateway"
	"privmem/internal/experiments"
	"privmem/internal/home"
	"privmem/internal/loads"
	"privmem/internal/meter"
	"privmem/internal/metrics"
	"privmem/internal/nettrace"
	"privmem/internal/solarsim"
	"privmem/internal/timeseries"
	"privmem/internal/weather"

	"privmem/perfbench/check"
)

// paperOpts are the options of a full-scale paper run at base seed seed.
func paperOpts(seed int64) experiments.Options {
	return experiments.Options{Seed: seed, SeedSet: true}
}

func setupPaper(r *run) error {
	reg := experiments.Registry()
	for _, id := range experiments.IDs() {
		if reg[id] == nil {
			return fmt.Errorf("experiment %s not registered", id)
		}
	}
	_ = paperOpts(r.baseSeed).ForExperiment("f1")
	return nil
}

// runPaper measures a cold full-scale run of the 16 paper artifacts, as the
// figures command does it. A round is one RunAll; a later round first
// flushes the world memo so it is cold again.
func runPaper(r *run) {
	ids := experiments.IDs()
	opts := paperOpts(r.baseSeed)
	var walls, cpus []float64
	var reps []*experiments.Report
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin).Seconds() < r.seconds; round++ {
		if round > 0 {
			experiments.SetWorldMemo(true)
			settle()
		}
		w := openWindow()
		var err error
		reps, err = experiments.RunAll(context.Background(), ids, opts, experiments.RunAllOptions{Workers: r.nproc})
		walls = append(walls, w.wall())
		cpus = append(cpus, w.cpuUsed())
		r.attempted += len(ids)
		for _, rep := range reps {
			if rep == nil {
				r.failed++
			}
		}
		r.fail(err)
	}
	r.checkPaper(ids, reps)
	wall := median(walls)
	r.set("wall_s", wall, "s")
	r.set("cpu_s", median(cpus), "s")
	r.set("ops_per_s", float64(len(ids))/wall, "1/s")
	r.infof("paper-full: %d round(s), %d reports each, median wall %.3fs", len(walls), len(ids), wall)
}

// checkPaper checks a suite's reports: all present, every headline metric
// inside its definition's range, the output identical to earlier runs and
// the traced replay at this seed, and at seed 42 identical to the
// checked-in figures_output.txt.
func (r *run) checkPaper(ids []string, reps []*experiments.Report) {
	if err := check.Reports(ids, reps); err != nil {
		r.fail(err)
		return
	}
	var text bytes.Buffer
	for _, rep := range reps {
		r.fail(check.Metrics(rep))
		text.WriteString(rep.Render())
		text.WriteByte('\n')
	}
	r.fail(r.record(fmt.Sprintf("paper-full-seed%d", r.baseSeed), digestOf(text.Bytes())))
	if r.baseSeed != 42 {
		return
	}
	golden, err := os.ReadFile(filepath.Join(r.root, "figures_output.txt"))
	if err != nil {
		r.infof("paper-full: no figures_output.txt to compare with (%v)", err)
		return
	}
	end := bytes.Index(golden, []byte(fmt.Sprintf("(%d/%d experiments in", len(ids), len(ids))))
	if end < 0 || !bytes.Equal(golden[:end], text.Bytes()) {
		r.fail(fmt.Errorf("paper-full: seed 42 output differs from figures_output.txt"))
	}
}

// tracePaper runs the layer probes on the experiments' own inputs, then
// replays the suite one experiment at a time with a span per experiment and
// checks the bytes against the untraced runs (worker-count invariance). The
// probes go first so that the attacks' process-wide caches are cold for
// them, as they are for the experiments of an untraced run. It returns the
// replay's wall time.
func tracePaper(r *run) float64 {
	ids := experiments.IDs()
	opts := paperOpts(r.baseSeed)
	probes := r.tr.begin("probes.paper-full", 0, 0)
	site, siteErr := probeSolar(r, probes, opts.ForExperiment("f5"))
	r.fail(siteErr)
	settle()
	r.fail(probeNILM(r, probes, opts.ForExperiment("f2")))
	r.fail(probeNetwork(r, probes, opts.ForExperiment("t8")))
	r.tr.end(probes)
	settle()

	root := r.tr.begin("paper-full", 0, 0)
	start := time.Now()
	reps := make([]*experiments.Report, len(ids))
	for i, id := range ids {
		d, err := r.tr.do("experiments."+id, root, func(int) error {
			var err error
			reps[i], err = experiments.RunContext(context.Background(), id, opts.ForExperiment(id))
			return err
		})
		r.attempted++
		if err != nil {
			r.failed++
			r.fail(fmt.Errorf("%s: %w", id, err))
		}
		r.set("experiments."+id+"_s", d, "s")
	}
	r.tr.end(root)
	replay := time.Since(start).Seconds()
	r.checkPaper(ids, reps)
	if f5 := reps[2]; f5 != nil && len(f5.Rows) > 0 && siteErr == nil {
		if want := f5.Rows[0][2:4]; site[0] != want[0] || site[1] != want[1] {
			r.fail(fmt.Errorf("probe solar: first site localized to %v km, f5 reports %v", site, want))
		}
	}
	return replay
}

// solarStart is the first instant of the f5 solar year.
var solarStart = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

// probeSolar times f5's layers on its first site: the weather field and
// 0.25° station grid over the year, CloudAt itself, PV generation, and both
// localization attacks. It returns both attacks' error distances as f5
// prints them, which must equal f5's row for that site.
func probeSolar(r *run, parent int, opts experiments.Options) ([2]string, error) {
	var km [2]string
	seed := opts.Seed
	field, err := weather.NewField(weather.DefaultFieldConfig(seed+900), solarStart, 365*24, 41)
	if err != nil {
		return km, fmt.Errorf("probe solar: %w", err)
	}
	var stations []weather.Station
	d, err := r.tr.do("weather.station_grid", parent, func(int) error {
		stations, err = weather.StationGrid(field, 35, 47, -89, -71, 0.25)
		return err
	})
	if err != nil {
		return km, fmt.Errorf("probe solar: %w", err)
	}
	r.set("weather.station_grid_s", d, "s")

	site := solarsim.Fleet(seed + 7)[0]
	const calls = 200_000
	var sink float64
	d, _ = r.tr.do("weather.cloud_at", parent, func(int) error {
		for i := 0; i < calls; i++ {
			sink += field.CloudAt(site.Lat, site.Lon, solarStart.Add(time.Duration(i%(365*24))*time.Hour))
		}
		return nil
	})
	r.set("weather.cloud_at_ns", d*1e9/calls, "ns")
	if math.IsNaN(sink) {
		return km, fmt.Errorf("probe solar: CloudAt returned NaN")
	}

	var gen *timeseries.Series
	d, err = r.tr.do("solarsim.generate", parent, func(int) error {
		gen, err = solarsim.Generate(site, field, solarStart, 365, time.Minute, seed)
		return err
	})
	if err != nil {
		return km, fmt.Errorf("probe solar: %w", err)
	}
	r.set("solarsim.generate_s", d, "s")

	ssKm, wmKm := -1.0, -1.0
	d, _ = r.tr.do("sunspot.localize", parent, func(int) error {
		if est, err := sunspot.Localize(gen, sunspot.DefaultConfig()); err == nil {
			ssKm = metrics.HaversineKm(site.Lat, site.Lon, est.Lat, est.Lon)
		}
		return nil
	})
	r.set("sunspot.localize_s", d, "s")
	hourly, err := gen.Resample(time.Hour)
	if err != nil {
		return km, fmt.Errorf("probe solar: %w", err)
	}
	d, _ = r.tr.do("weatherman.localize", parent, func(int) error {
		if est, err := weatherman.Localize(hourly, stations, weatherman.DefaultConfig()); err == nil {
			wmKm = metrics.HaversineKm(site.Lat, site.Lon, est.Lat, est.Lon)
		}
		return nil
	})
	r.set("weatherman.localize_s", d, "s")
	return [2]string{fmt.Sprintf("%.1f", ssKm), fmt.Sprintf("%.1f", wmKm)}, nil
}

// probeNILM times f2's layers: simulating its 12-day home and the FHMM
// baseline's factorial decode of the test window.
func probeNILM(r *run, parent int, opts experiments.Options) error {
	seed := opts.Seed
	cfg := home.DefaultConfig(seed)
	cfg.Days = 12
	cfg.Step = 10 * time.Second
	cfg.IncludeWaterHeater = false
	var tr *home.Trace
	d, err := r.tr.do("home.simulate", parent, func(int) error {
		var err error
		tr, err = home.Simulate(cfg)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe nilm: %w", err)
	}
	r.set("home.simulate_s", d, "s")

	mc := meter.DefaultConfig(seed)
	mc.Interval = cfg.Step
	metered, err := meter.Read(mc, tr.Aggregate)
	if err != nil {
		return fmt.Errorf("probe nilm: %w", err)
	}
	split := 5 * int(24*time.Hour/cfg.Step)
	coarse := func(s *timeseries.Series) *timeseries.Series {
		out, rerr := s.Resample(time.Minute)
		if rerr != nil && err == nil {
			err = rerr
		}
		return out
	}
	train := map[string]*timeseries.Series{}
	other := tr.Aggregate.Slice(0, split)
	for _, name := range loads.TrackedDevices() {
		part := tr.Appliances[name].Slice(0, split)
		train[name] = coarse(part)
		if other, err = other.Sub(part); err != nil {
			return fmt.Errorf("probe nilm: %w", err)
		}
	}
	other1m, test1m := coarse(other), coarse(metered.Slice(split, metered.Len()))
	if err != nil {
		return fmt.Errorf("probe nilm: %w", err)
	}
	model, err := nilm.TrainFHMM(train, other1m, nilm.DefaultFHMMConfig())
	if err != nil {
		return fmt.Errorf("probe nilm: %w", err)
	}
	d, err = r.tr.do("hmm.factorial_decode", parent, func(int) error {
		_, err := model.Disaggregate(test1m)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe nilm: %w", err)
	}
	r.set("hmm.factorial_decode_s", d, "s")
	return nil
}

// probeNetwork times t8/t9's layers on their default captures: the lab and
// victim LAN simulations, feature extraction, classifier training and
// gateway shaping.
func probeNetwork(r *run, parent int, opts experiments.Options) error {
	seed := opts.Seed
	hcfg := home.DefaultConfig(seed + 21)
	hcfg.Days = 7
	tr, err := home.Simulate(hcfg)
	if err != nil {
		return fmt.Errorf("probe network: %w", err)
	}
	labCfg := nettrace.DefaultConfig(seed + 1)
	labCfg.Days = 2
	labCfg.Counts = map[nettrace.Class]int{}
	for _, c := range nettrace.Classes() {
		labCfg.Counts[c] = 1
	}
	lab, err := nettrace.Simulate(labCfg)
	if err != nil {
		return fmt.Errorf("probe network: %w", err)
	}
	vcfg := nettrace.DefaultConfig(seed + 2)
	vcfg.Days = 7
	vcfg.Activity = tr.Active
	var victim *nettrace.Capture
	d, err := r.tr.do("nettrace.simulate", parent, func(int) error {
		victim, err = nettrace.Simulate(vcfg)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe network: %w", err)
	}
	r.set("nettrace.simulate_s", d, "s")
	d, err = r.tr.do("nettrace.extract_features", parent, func(int) error {
		_, err := nettrace.ExtractFeatures(victim, time.Hour)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe network: %w", err)
	}
	r.set("nettrace.extract_features_s", d, "s")
	d, err = r.tr.do("fingerprint.train", parent, func(int) error {
		_, err := fingerprint.Train(lab, time.Hour)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe network: %w", err)
	}
	r.set("fingerprint.train_s", d, "s")
	d, err = r.tr.do("gateway.shape", parent, func(int) error {
		_, _, err := gateway.Shape(victim, gateway.DefaultShapeConfig())
		return err
	})
	if err != nil {
		return fmt.Errorf("probe network: %w", err)
	}
	r.set("gateway.shape_s", d, "s")
	return nil
}
