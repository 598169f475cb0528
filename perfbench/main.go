// Command perfbench is GlobeDoc's end-to-end benchmark. It drives one of
// three workloads through the whole stack — proxy, core (the Figure-3
// pipeline), naming and location, transport, object server, cert,
// globeid and vcache — over the simulated testbed, checks every byte the
// proxy returns, and prints one JSON result as its last line.
//
//	bash perfbench/run.sh --workload browse --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload again with probes around each layer and reports the
// per-layer metrics instead. README.md describes the workloads and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/keys"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
)

const primarySite = netsim.AmsterdamPrimary

var serverLimits = server.Limits{}

// runConfig is what every workload is built from.
type runConfig struct {
	seed    uint64
	seconds int
	owners  []*keys.KeyPair
}

// env is one set-up workload, ready to be driven.
type env interface {
	// run drives the load until m's phase ends; phase selects the
	// seeded request streams, so consecutive phases differ.
	run(m *meter, phase int)
	// check returns the number of byte or state mismatches seen so far,
	// after checking the final replica state where the workload has one.
	check() (int, error)
	// warm brings caches to their steady state before timing; it is not
	// part of set-up time.
	warm() error
	// traced adds the per-layer metrics only the workload itself sees,
	// after its traced phase b.
	traced(l *layers, b phaseStats)
	labInputs() labInputs
	testbed() *testbed
	close()
}

func (e *browseEnv) testbed() *testbed { return e.tb }
func (e *visitEnv) testbed() *testbed  { return e.tb }
func (e *updateEnv) testbed() *testbed { return e.tb }

type workloadDef struct {
	// window is the length of the windows a measured phase is cut into.
	// CPU-bound workloads use short ones and report the least-disturbed
	// quartile of windows; the wire-bound first-visit completes too few
	// visits per window for that and uses the whole phase (0).
	window time.Duration
	// tailQ is the fixed tail percentile of latency_tail_ms: the highest
	// with at least minBeyond samples beyond it in every window.
	tailQ float64
	// writes selects the latencies latency_* report: the versions'
	// visibility (update) rather than the reads.
	writes bool
	// prepare generates the inputs from the seed, once per run and
	// outside set-up time; it returns the set-up function.
	prepare func(cfg runConfig) (func(t *taps) (env, error), error)
}

var workloads = map[string]workloadDef{
	"browse": {
		window: 2500 * time.Millisecond,
		tailQ:  0.99,
		prepare: func(cfg runConfig) (func(*taps) (env, error), error) {
			in := browseCorpus(cfg.seed)
			return func(t *taps) (env, error) { return setupBrowse(cfg, in, t) }, nil
		},
	},
	"first-visit": {
		window: 0,
		tailQ:  0.95,
		prepare: func(cfg runConfig) (func(*taps) (env, error), error) {
			in := visitCorpus(cfg.seed)
			return func(t *taps) (env, error) { return setupVisit(cfg, in, t) }, nil
		},
	},
	"update": {
		window: 2500 * time.Millisecond,
		tailQ:  0.95,
		writes: true,
		prepare: func(cfg runConfig) (func(*taps) (env, error), error) {
			in, err := updateCorpus(cfg, cfg.seconds)
			if err != nil {
				return nil, err
			}
			return func(t *taps) (env, error) { return setupUpdate(cfg, in, t) }, nil
		},
	},
}

// Set-up is repeated and its median reported: at least setupMin times,
// and more while the total stays under setupBudget, once before the
// measured phase and once after it. The host's speed drifts over
// seconds, and set-ups spread over the whole run sample more of it than
// a burst at its start.
const (
	setupMin    = 3
	setupMax    = 40
	setupBudget = 1500 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: browse, first-visit or update")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 30, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		fixtures = flag.String("fixtures", "perfbench/testdata", "directory of the owner key fixtures")
		genKeys  = flag.Bool("gen-keys", false, "regenerate the owner key fixtures and exit")
	)
	flag.Parse()
	if *genKeys {
		if err := writeOwnerKeys(*fixtures); err != nil {
			fail(err)
		}
		return
	}
	def, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 2 || *trace < 0 || *trace > 1 {
		fail(errors.New("need --seconds >= 2 and --trace 0 or 1"))
	}
	owners, err := loadOwnerKeys(*fixtures, fixtureKeys)
	if err != nil {
		fail(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, owners: owners}
	setup, err := def.prepare(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n", *name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	var res result
	if *trace == 0 {
		res, err = measure(cfg, def, setup)
	} else {
		res, err = traceRun(cfg, def, setup)
	}
	if err != nil {
		fail(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setUps builds the workload's testbed repeatedly, closing all but the
// last, and returns the last with the time each set-up took in seconds.
func setUps(setup func(*taps) (env, error)) (env, []float64, error) {
	var times []float64
	var e env
	spent := time.Duration(0)
	for i := 0; i < setupMin || i < setupMax && spent < setupBudget; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setup(nil); err != nil {
			return nil, nil, err
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
	}
	return e, times, nil
}

// measure is the untraced run: the end-to-end metrics.
func measure(cfg runConfig, def workloadDef, setup func(*taps) (env, error)) (result, error) {
	e, times, err := setUps(setup)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	if err := e.warm(); err != nil {
		return result{}, err
	}
	runtime.GC()
	d := time.Duration(cfg.seconds) * time.Second
	windows := 1
	if def.window > 0 {
		windows = int(d / def.window)
	}
	m := startMeter(d, windows)
	e.run(m, 0)
	st := m.stats()
	bad, first := e.check()
	e.close()
	e, more, err := setUps(setup)
	if err != nil {
		return result{}, err
	}
	setupS := median(append(times, more...))
	lat, win := st.reads, st.readWin
	if def.writes {
		lat, win = st.writes, st.writeWin
	}
	p50, _ := windowPercentile(win, 0.5)
	tail, ok := percentile(lat, def.tailQ)
	fmt.Printf("# %d latency samples in %d windows of %.1f s; latency_tail_ms is p%g of the phase",
		len(lat), windows, st.windowSeconds, 100*def.tailQ)
	if !ok {
		fmt.Printf(", with fewer than %d samples beyond it", minBeyond)
	}
	fmt.Println()
	if first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", first)
	}
	return result{
		Correct:   verdict(st, def.writes, bad),
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":         {setupS, "s"},
			"throughput_rps":  {st.throughput, "1/s"},
			"latency_p50_ms":  {p50, "ms"},
			"latency_tail_ms": {tail, "ms"},
			"cpu_ms_per_op":   {st.cpuMsPerOp, "ms"},
			"alloc_kb_per_op": {st.allocKBPerOp, "KB"},
			"heap_peak_mb":    {st.heapPeakMB, "MB"},
		},
	}, nil
}

// traceRun is the traced run: the workload runs half the time untraced
// and half with the layer probes recording, then the isolated timings
// run on the workload's inputs.
func traceRun(cfg runConfig, def workloadDef, setup func(*taps) (env, error)) (result, error) {
	t := &taps{}
	e, err := setup(t)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	if err := e.warm(); err != nil {
		return result{}, err
	}
	tel := e.testbed().tel
	half := time.Duration(cfg.seconds) * time.Second / 2
	runtime.GC()
	ma := startMeter(half, 1)
	e.run(ma, 0)
	a := ma.stats()

	c0 := readCounters(tel)
	t.on.Store(true)
	mb := startMeter(half, 1)
	e.run(mb, 1)
	b := mb.stats()
	t.on.Store(false)
	c := readCounters(tel).sub(c0)

	l := &layers{m: make(map[string]metric)}
	ops := float64(b.ops)
	l.set("transport.rpcs_per_op", float64(c.rpcCalls)/ops, "count")
	l.set("transport.dials_per_op", float64(t.dials.Load())/ops, "count")
	l.set("transport.round_trips_per_op", float64(t.roundTrips.Load())/ops, "count")
	l.set("transport.wire_kb_per_op", float64(t.bytesIn.Load()+t.bytesOut.Load())/1024/ops, "KB")
	l.set("netsim.wire_ms_per_op", ms(time.Duration(t.wireNS.Load()))/ops, "ms")
	l.set("naming.resolve_ms", meanMS(t.resolveNS.Load(), t.resolveN.Load()), "ms")
	l.set("location.lookup_ms", meanMS(t.lookupNS.Load(), t.lookupN.Load()), "ms")
	l.set("vcache.hit_ratio", ratio(int64(c.vcHits), int64(c.vcHits+c.vcMisses)), "ratio")
	l.set("vcache.evictions_per_op", float64(c.vcEvictions)/ops, "count")
	l.set("vcache.revalidations_per_op", float64(c.vcRevalidated)/ops, "count")
	l.set("vcache.sig_hit_ratio", ratio(int64(c.sigHits), int64(c.pipelineRuns)), "ratio")
	l.set("workload.failed_ratio", ratio(a.failed+b.failed, a.attempted+b.attempted), "ratio")
	rp50, _ := percentile(b.reads, 0.5)
	q, rtail := tailPercentile(b.reads)
	l.set("workload.read_p50_ms", rp50, "ms")
	l.set("workload.read_tail_ms", rtail, "ms")
	ap50, _ := percentile(a.reads, 0.5)
	l.set("bench.trace_overhead_pct", 100*(rp50/ap50-1), "%")
	fmt.Printf("# traced phase: %d reads, workload.read_tail_ms is p%g\n", len(b.reads), 100*q)
	e.traced(l, b)

	bad, first := e.check()
	if first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", first)
	}
	if err := runLab(cfg, e.labInputs(), l); err != nil {
		return result{}, fmt.Errorf("isolated timings: %w", err)
	}
	for _, pm := range perLayer {
		got, ok := l.m[pm.name]
		if !ok || got.Unit != pm.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return result{}, fmt.Errorf("per-layer metric %s missing or malformed: %+v", pm.name, got)
		}
	}
	return result{
		Correct:   verdict(a, def.writes, bad) && verdict(b, def.writes, 0),
		Attempted: a.attempted + b.attempted,
		Failed:    a.failed + b.failed,
		Metrics:   l.m,
	}, nil
}

// verdict reports whether a measured phase makes a correct run: no byte
// or state mismatch (bad), no failed, refused or mismatched operation,
// some operation completed and, where latency_* reports the writes, some
// write completed. Failed operations are left out of every figure, so a
// run with any is not a result.
func verdict(st phaseStats, writes bool, bad int) bool {
	return bad == 0 && st.failed == 0 && st.ops > 0 && (!writes || len(st.writes) > 0)
}

// layers collects the per-layer metrics of a traced run.
type layers struct{ m map[string]metric }

func (l *layers) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// timing reports the mean Figure-3 breakdown of n cold fetches whose
// Timings sum to t and whose security shares sum to share.
func (l *layers) timing(t core.Timing, n int, share float64) {
	if n == 0 {
		n = 1
	}
	m := t.Scale(n)
	l.set("core.name_resolve_ms", ms(m.NameResolve), "ms")
	l.set("core.bind_ms", ms(m.Bind), "ms")
	l.set("core.key_fetch_ms", ms(m.KeyFetch), "ms")
	l.set("core.namecert_fetch_ms", ms(m.NameCertFetch), "ms")
	l.set("core.cert_fetch_ms", ms(m.CertFetch), "ms")
	l.set("core.element_fetch_ms", ms(m.ElementFetch), "ms")
	l.set("core.key_verify_us", us(m.KeyVerify), "us")
	l.set("core.cert_verify_us", us(m.CertVerify), "us")
	l.set("core.element_verify_us", us(m.ElementVerify), "us")
	l.set("core.security_share_pct", share/float64(n), "%")
}

// writer reports an open-loop writer's per-version costs.
func (l *layers) writer(w *writerStats) {
	n := float64(len(w.updateMS))
	l.set("server.update_ms", mean(w.updateMS), "ms")
	l.set("server.delta_pull_ms", mean(w.pullMS), "ms")
	l.set("server.delta_kb_per_update", mean(w.kb), "KB")
	l.set("server.delta_fallback_ratio", float64(w.fallbacks)/math.Max(n, 1), "ratio")
	q, late := tailPercentile(sortedCopy(w.lateMS))
	l.set("workload.writer_late_ms", late, "ms")
	fmt.Printf("# writer: %d versions, workload.writer_late_ms is p%g\n", len(w.updateMS), 100*q)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func meanMS(totalNS, n int64) float64 {
	if n == 0 {
		return 0
	}
	return ms(time.Duration(totalNS / n))
}

// perLayer lists every metric a traced run reports, in BENCHMARK.json's
// order.
var perLayer = []struct{ name, unit string }{
	{"proxy.serve_us", "us"},
	{"proxy.allocs_per_req", "count"},
	{"core.fetch_hit_us", "us"},
	{"core.fetch_warm_us", "us"},
	{"core.allocs_per_fetch", "count"},
	{"core.kb_per_fetch", "KB"},
	{"core.fetch_cold_us", "us"},
	{"core.name_resolve_ms", "ms"},
	{"core.bind_ms", "ms"},
	{"core.key_fetch_ms", "ms"},
	{"core.namecert_fetch_ms", "ms"},
	{"core.cert_fetch_ms", "ms"},
	{"core.element_fetch_ms", "ms"},
	{"core.key_verify_us", "us"},
	{"core.cert_verify_us", "us"},
	{"core.element_verify_us", "us"},
	{"core.security_share_pct", "%"},
	{"core.warm_ratio", "ratio"},
	{"naming.resolve_ms", "ms"},
	{"naming.verify_chain_us", "us"},
	{"location.lookup_ms", "ms"},
	{"transport.rpcs_per_op", "count"},
	{"transport.dials_per_op", "count"},
	{"transport.round_trips_per_op", "count"},
	{"transport.wire_kb_per_op", "KB"},
	{"transport.call_us", "us"},
	{"transport.allocs_per_call", "count"},
	{"object.get_element_1k_us", "us"},
	{"object.get_element_100k_us", "us"},
	{"object.get_element_allocs", "count"},
	{"object.decode_element_us", "us"},
	{"server.update_ms", "ms"},
	{"server.delta_pull_ms", "ms"},
	{"server.delta_kb_per_update", "KB"},
	{"server.delta_fallback_ratio", "ratio"},
	{"cert.verify_sig_us", "us"},
	{"cert.verify_element_us", "us"},
	{"globeid.hash_mb_per_s", "MB/s"},
	{"vcache.hit_ratio", "ratio"},
	{"vcache.get_us", "us"},
	{"vcache.put_us", "us"},
	{"vcache.evictions_per_op", "count"},
	{"vcache.sig_hit_ratio", "ratio"},
	{"vcache.revalidations_per_op", "count"},
	{"netsim.wire_ms_per_op", "ms"},
	{"workload.writer_late_ms", "ms"},
	{"workload.read_p50_ms", "ms"},
	{"workload.read_tail_ms", "ms"},
	{"workload.failed_ratio", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}
