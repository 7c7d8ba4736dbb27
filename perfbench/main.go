// Command perfbench is the repository's benchmark. It builds a seeded
// corpus in process and drives it through the live path — MRT decode,
// sharded classification, anomaly detection, the store and the serving
// plane — under one of three workloads, checks every output against a
// reference computed apart from the program, and prints its metrics.
//
//	go run . --workload ingest|serve|live --seed 1 --seconds 10 --trace 0|1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics untraced, per-layer metrics
// traced). See README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The run's fixed shape: two processors, as on the host the reference
// figures come from, and three set-ups, whose median is setup_s.
const (
	procs  = 2
	setups = 3
)

// env is what every workload runs with.
type env struct {
	seed    int64
	seconds time.Duration
	dir     string  // scratch space for stores, removed at exit
	tr      *tracer // nil in untraced runs
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	e2e               []metric // untraced runs
	layer             []metric // traced runs
	notes             []string
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string // base, sample count or phase
}

func (r *result) addE2E(name string, v float64, unit, note string) {
	r.e2e = append(r.e2e, metric{name, v, unit, note})
}

func (r *result) addLayer(name string, v float64, unit, note string) {
	r.layer = append(r.layer, metric{name, v, unit, note})
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env, *result) error{
	"ingest": runIngest,
	"serve":  runServe,
	"live":   runLive,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "ingest", "workload: ingest, serve or live")
		seed    = flag.Int64("seed", 1, "corpus and operation-mix seed")
		seconds = flag.Int("seconds", 10, "length of the timed part")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		dir     = flag.String("dir", ".bench_build/work", "scratch directory for stores")
	)
	flag.Parse()
	wl := workloads[*name]
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: scratch}
	if *trace == 1 {
		e.tr = newTracer()
	}
	printProvenance(*name, e)
	res := &result{}
	steal0 := stealSeconds()
	err = wl(e, res)
	res.notef("host: %.2f s of CPU time stolen by the hypervisor during the run", stealSeconds()-steal0)
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	if err != nil {
		fmt.Printf("FAIL %s: %v\n", *name, err)
		if isCheck(err) {
			// A wrong answer still reports, as incorrect.
			b, _ := json.Marshal(map[string]any{
				"correct": false, "attempted": res.attempted, "failed": res.failed, "metrics": map[string]any{},
			})
			fmt.Println(string(b))
		}
		return 1
	}
	if e.tr != nil {
		tracePath := filepath.Join(*dir, fmt.Sprintf("trace-%s-%d.tsv", *name, *seed))
		kept, dropped, err := e.tr.write(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
			return 1
		}
		fmt.Printf("trace: %d spans in %s (%d more counted, not kept)\n", kept, tracePath, dropped)
		printSelfTimes(e.tr)
	}
	ms := res.e2e
	if e.tr != nil {
		ms = res.layer
	}
	out := map[string]any{}
	for _, m := range ms {
		line := fmt.Sprintf("metric %-36s %14.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	fmt.Printf("ops %s: attempted %d, failed %d\n", *name, res.attempted, res.failed)
	b, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func printProvenance(name string, e *env) {
	commit := "unknown (no VCS data in the build)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	fmt.Printf("run: workload=%s seed=%d seconds=%v traced=%v setups=%d\n",
		name, e.seed, e.seconds.Seconds(), e.tr != nil, setups)
	fmt.Printf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealSeconds reads the machine's stolen CPU time so far (the eighth
// field of the cpu line of /proc/stat, in 1/100 s), 0 where unavailable.
// Another virtual machine on the host taking the CPUs slows every metric
// of a run; the run reports how much.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / 100
}

// printSelfTimes prints each layer's self time per phase of a traced run.
func printSelfTimes(tr *tracer) {
	for p := 0; p < numPhases; p++ {
		self := tr.selfByLayer(p)
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Printf("self %-6s %-10s %10.3f ms\n", phaseNames[p], l, float64(self[l])/1e6)
		}
	}
}

// setup runs fn setups times, keeping the last result, and returns the
// median duration in seconds, each scaled to the CPU time the hypervisor
// left to it (see unstolen). Earlier results are released with drop.
func setup[T any](e *env, fn func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var durs []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			drop(last)
			runtime.GC()
		}
		s0 := stealSeconds()
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		durs = append(durs, d*unstolen(d, stealSeconds()-s0))
		last = v
	}
	sort.Float64s(durs)
	return last, durs[len(durs)/2], nil
}

// latencies holds one operation kind's samples in milliseconds.
type latencies []float64

// pct returns the p-quantile (0..1) by linear interpolation between
// order statistics, and whether at least ten samples lie beyond it.
func (l latencies) pct(p float64) (float64, bool) {
	if len(l) == 0 {
		return 0, false
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	x := p * float64(len(s)-1)
	i := int(math.Floor(x))
	v := s[i]
	if i+1 < len(s) {
		v += (x - float64(i)) * (s[i+1] - s[i])
	}
	return v, float64(len(s))*(1-p) >= 10
}

// slice is one stretch of a timed part: its length, the CPU time the
// hypervisor stole during it, the work it completed in throughput units,
// and the latencies of its operations.
type slice struct {
	secs  float64
	steal float64
	work  float64
	lat   latencies
}

// addSliced reports throughput_per_s, latency_p50_ms and latency_p90_ms
// from the slices of a timed part. The machine is shared with other
// virtual machines, and the hypervisor takes CPU time from this one while
// they run, for seconds or minutes at a time. Each slice's figures are
// therefore scaled to the CPU time left to the run (see unstolen), and each
// metric is the median over the half of the slices, rounded up, in which
// the least was stolen. Every kept slice must have at least ten samples
// beyond its 90th percentile. The note gives the unscaled medians too.
func (r *result) addSliced(sl []slice, what string) error {
	kept := append([]slice(nil), sl...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].steal/kept[i].secs < kept[j].steal/kept[j].secs })
	kept = kept[:(len(kept)+1)/2]
	var rate, p50, p90, rawRate, rawP50, rawP90 latencies
	n := 0
	for i, s := range kept {
		a, _ := s.lat.pct(0.5)
		b, ok := s.lat.pct(0.9)
		if !ok {
			return fmt.Errorf("slice %d has %d samples, fewer than ten beyond p90", i, len(s.lat))
		}
		f := unstolen(s.secs, s.steal)
		rate = append(rate, s.work/(s.secs*f))
		p50 = append(p50, a*f)
		p90 = append(p90, b*f)
		rawRate = append(rawRate, s.work/s.secs)
		rawP50 = append(rawP50, a)
		rawP90 = append(rawP90, b)
		n += len(s.lat)
	}
	var stolen float64
	for _, s := range sl {
		stolen += s.steal
	}
	med := func(l latencies) float64 { v, _ := l.pct(0.5); return v }
	note := fmt.Sprintf("median of the %d least-stolen of %d slices, %.2f s stolen in all", len(kept), len(sl), stolen)
	r.addE2E("throughput_per_s", med(rate), "1/s", fmt.Sprintf("%s, %s; unscaled %.6g", what, note, med(rawRate)))
	r.addE2E("latency_p50_ms", med(p50), "ms", fmt.Sprintf("%s, n=%d; unscaled %.6g", note, n, med(rawP50)))
	r.addE2E("latency_p90_ms", med(p90), "ms", fmt.Sprintf("%s, n=%d; unscaled %.6g", note, n, med(rawP90)))
	return nil
}

// unstolen is the share of the run's CPU time over secs seconds that the
// hypervisor did not take, given steal seconds stolen across the run's
// procs processors; scaling a busy stretch's duration by it estimates the
// duration on an unshared machine. It is kept at or above a quarter.
func unstolen(secs, steal float64) float64 {
	return max(0.25, 1-steal/(procs*secs))
}

// stealClock reads the stolen CPU time at each boundary of n equal slices
// of a timed part, from a goroutine of its own; wait returns the readings.
type stealClock struct {
	at   []float64
	done chan struct{}
}

func startStealClock(t0 time.Time, length time.Duration, n int) *stealClock {
	c := &stealClock{at: make([]float64, n+1), done: make(chan struct{})}
	c.at[0] = stealSeconds()
	go func() {
		defer close(c.done)
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(t0.Add(length * time.Duration(k) / time.Duration(n))))
			c.at[k] = stealSeconds()
		}
	}()
	return c
}

func (c *stealClock) wait() []float64 {
	<-c.done
	return c.at
}

// slicesPerRun is how many equal slices serve and live cut their timed
// part into: two seconds each at the ten-second default.
func slicesPerRun(length time.Duration) int {
	return max(1, int(length/(2*time.Second)))
}

// timeSlices cuts a timed part of the given length, started at t0, into
// len(steal)-1 equal slices; done and lat are each operation's completion
// time and latency, steal the stolen CPU time read at the slice
// boundaries. Operations completed after the end are left out.
func timeSlices(done []time.Time, lat latencies, t0 time.Time, length time.Duration, steal []float64) []slice {
	n := len(steal) - 1
	sl := make([]slice, n)
	for i := range sl {
		sl[i].secs = length.Seconds() / float64(n)
		sl[i].steal = steal[i+1] - steal[i]
	}
	for i, t := range done {
		if k := int(t.Sub(t0) * time.Duration(n) / length); k < n {
			sl[k].work++
			sl[k].lat = append(sl[k].lat, lat[i])
		}
	}
	return sl
}

func memAlloc() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// ratio formats a ratio with its base.
func ratio(num, den float64, what string) (float64, string) {
	if den == 0 {
		return 0, "base 0 " + what
	}
	return num / den, fmt.Sprintf("%.0f of %.0f %s", num, den, what)
}
