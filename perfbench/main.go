// Command perfbench is the privmem benchmark. It drives the program only
// through its public functions — experiments.RunAll/RunContext, fleet.Run
// and serve.New/Handler over loopback HTTP — and prints every metric by
// name with its unit, then one JSON result line.
//
//	perfbench -workload paper-full|fleet-200k|serve-zipf -seed N -seconds S -trace 0|1
//	perfbench -workload fleet-200k -repeat 10      # N fresh runs, median/quartiles/spread
//
// With -trace 0 the run measures one workload with tracing off and reports
// the end-to-end metrics. With -trace 1 it is the traced run: every workload
// is replayed with spans around the calls into each layer, the layer probes
// run on the workloads' own inputs, and the per-layer metrics are reported.
// See README.md for the metric definitions.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"privmem/internal/experiments"
)

// workloads lists the benchmark's workloads in presentation order.
var workloads = []string{"paper-full", "fleet-200k", "serve-zipf"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark process's state: its inputs, what it measured and
// what its checks found.
type run struct {
	workload string
	seed     int64 // orders serve-zipf's requests
	baseSeed int64 // program seed of paper-full and fleet-200k
	seconds  float64
	nproc    int
	root     string // checkout root; scratch files live under root/.bench_build
	exeHash  string
	stamp    string  // environment stamp
	tr       *tracer // nil with -trace 0

	attempted, failed int
	errs              []error
	metrics           map[string]metric // the JSON metrics
	info              []string          // human-readable lines, printed only
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *run) fail(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

func (r *run) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// scratch returns a fresh directory under the checkout's build directory.
func (r *run) scratch(name string) (string, error) {
	base := filepath.Join(r.root, ".bench_build", "perfbench", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// record compares digest with the one an earlier run of the same binary
// stored under name, or stores it when there is none. It is how outputs are
// compared across runs at one seed, and between the untraced run and the
// traced replay.
func (r *run) record(name, digest string) error {
	dir := filepath.Join(r.root, ".bench_build", "perfbench", "records", r.exeHash)
	path := filepath.Join(dir, name)
	prev, err := os.ReadFile(path)
	if err == nil {
		if string(prev) != digest {
			return fmt.Errorf("%s: output digest %s differs from an earlier run's %s", name, digest[:16], string(prev)[:16])
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp" + strconv.Itoa(os.Getpid())
	if err := os.WriteFile(tmp, []byte(digest), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	baseSeed := flag.Int64("base-seed", 42, "program seed of paper-full and fleet-200k (42 is figures_output.txt's); --seed does not change their inputs")
	seconds := flag.Float64("seconds", 10, "minimum measured time; whole rounds are repeated until it has passed")
	trace := flag.Int("trace", 0, "1 selects the traced run (per-layer metrics)")
	root := flag.String("root", ".", "checkout root")
	commit := flag.String("commit", "", "commit of the measured tree, for the environment stamp")
	repeat := flag.Int("repeat", 0, "run the workload this many times in fresh processes, seeds seed..seed+N-1, and summarize")
	setupProbe := flag.Bool("setup-probe", false, "internal: build the workload's objects and exit (timed by the parent for setup_s)")
	flag.Parse()

	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	r := &run{workload: *workload, seed: *seed, baseSeed: *baseSeed, seconds: *seconds, nproc: nproc, root: absRoot, metrics: map[string]metric{}}
	if *setupProbe {
		if err := setupOnly(r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		return 0
	}
	stamp := envStamp(absRoot, nproc, *commit)
	if *repeat > 0 {
		return repeatRuns(r, *repeat, *trace, *commit, stamp)
	}
	if r.exeHash, err = exeHash(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r.stamp = stamp
	fmt.Println("env:", stamp)

	start := time.Now()
	if *trace == 1 {
		r.tr = newTracer()
		tracedRun(r)
	} else {
		setupS, err := setupSeconds(r)
		r.fail(err)
		r.set("setup_s", setupS, "s")
		switch r.workload {
		case "paper-full":
			runPaper(r)
		case "fleet-200k":
			runFleet(r)
		case "serve-zipf":
			runServe(r)
		}
		r.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	for _, line := range r.info {
		fmt.Println(line)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, err := range r.errs {
		fmt.Println("CHECK FAILED:", err)
	}
	fmt.Printf("operations: %d attempted, %d failed; %d checks failed; %.1fs\n", r.attempted, r.failed, len(r.errs), time.Since(start).Seconds())
	res := result{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// exeHash identifies the running binary, so digest records from an older
// build of the program are never compared with a newer one.
func exeHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	return digestOf(data)[:16], nil
}

// envStamp describes where a result was measured. Outside a git checkout
// the commit is replaced by a digest of the tree's Go sources.
func envStamp(root string, nproc int, commit string) string {
	if commit == "" {
		commit = treeDigest(root)
	}
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s", runtime.GOMAXPROCS(0), nproc, model, runtime.Version(), commit)
}

// treeDigest hashes the path and content of every .go and go.mod file under
// root, skipping hidden directories and build output.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// setupProbes is how many fresh processes setupSeconds times.
const setupProbes = 25

// setupSeconds is the benchmark's set-up time: the median, over several
// fresh processes, of starting the program and building the workload's
// objects up to the point where the timed part could begin.
func setupSeconds(r *run) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "-setup-probe", "-workload", r.workload, "-seed", strconv.FormatInt(r.seed, 10),
			"-base-seed", strconv.FormatInt(r.baseSeed, 10), "-root", r.root)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

func setupOnly(r *run) error {
	switch r.workload {
	case "paper-full":
		return setupPaper(r)
	case "fleet-200k":
		return setupFleet(r)
	default:
		return setupServe(r)
	}
}

// tracedRun replays the workloads with spans and runs every layer probe, so
// each traced run reports every per-layer metric. paper-full and serve-zipf
// are always replayed in full (their per-experiment and per-request spans
// are layer metrics); fleet-200k is replayed in full only when requested,
// its layers being measured on a smaller population otherwise. Operations
// are counted for the requested workload only, so attempted and failed keep
// the proportion of that workload's untraced runs. trace.wall_s is the
// requested workload's traced timed part, to set beside its untraced wall_s.
func tracedRun(r *run) {
	for _, w := range workloads {
		before := readGoStats()
		a, f := r.attempted, r.failed
		var wall float64
		switch w {
		case "paper-full":
			wall = tracePaper(r)
		case "fleet-200k":
			wall = traceFleet(r)
		case "serve-zipf":
			wall = traceServe(r)
		}
		if w == r.workload {
			r.set("trace.wall_s", wall, "s")
		} else {
			r.attempted, r.failed = a, f
		}
		g := readGoStats().sub(before)
		r.set("go."+w+".alloc_mb", float64(g.allocBytes)/(1<<20), "MB")
		r.set("go."+w+".gc_cycles", float64(g.gcCycles), "count")
		r.set("go."+w+".gc_cpu_s", g.gcCPU, "s")
		experiments.SetWorldMemo(true)
		settle()
	}
	dir := filepath.Join(r.root, ".bench_build", "perfbench")
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = r.tr.writeJSON(path, r.stamp)
	}
	r.fail(err)
	if err == nil {
		r.infof("spans: %s", path)
	}
	var b bytes.Buffer
	r.tr.printLayers(&b)
	r.info = append(r.info, strings.Split(strings.TrimRight(b.String(), "\n"), "\n")...)
}

// repeatRuns runs the workload n times, each in a fresh process with its
// own seed, and prints per metric the median, the quartiles and the spread
// (interquartile distance over the median), with the failed share.
func repeatRuns(r *run, n, trace int, commit, stamp string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println("env:", stamp)
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	status := 0
	for i := 0; i < n; i++ {
		seed := r.seed + int64(i)
		cmd := exec.Command(exe, "-workload", r.workload, "-seed", strconv.FormatInt(seed, 10),
			"-base-seed", strconv.FormatInt(r.baseSeed, 10),
			"-seconds", strconv.FormatFloat(r.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-root", r.root, "-commit", commit)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Printf("seed %d: %v\n", seed, err)
			status = 1
		}
		var res result
		if jerr := json.Unmarshal(lastLine(out), &res); jerr != nil {
			fmt.Printf("seed %d: no result line: %v\n", seed, jerr)
			status = 1
			continue
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		names := make([]string, 0, len(res.Metrics))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%.6g", name, res.Metrics[name].Value)
		}
		fmt.Printf("seed %d: correct=%t attempted=%d failed=%d%s\n", seed, res.Correct, res.Attempted, res.Failed, b.String())
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %-6s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		v := values[name]
		q1, q2, q3 := quartiles(v)
		fmt.Printf("%-34s %-6s %14.6g %14.6g %14.6g %7.2f%%\n", name, units[name], q2, q1, q3, 100*(q3-q1)/q2)
	}
	fmt.Println("failed/attempted per run:", strings.Join(shares, " "))
	return status
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
	return lines[len(lines)-1]
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(j int) float64 {
		pos := float64((n+1)*j) / 4
		i := int(pos)
		frac := pos - float64(i)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return q(1), q(2), q(3)
}
