package bench

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/workload"
)

// MuxPhase is the latency distribution of one multiplex-experiment
// phase: a cold single-element fetch, a cold whole-object fetch through
// the batched GetElements exchange, or the serial-RPC ablation.
type MuxPhase struct {
	Ops  int           `json:"ops"`
	Mean time.Duration `json:"latency_mean_ns"`
	P50  time.Duration `json:"latency_p50_ns"`
	P95  time.Duration `json:"latency_p95_ns"`
	P99  time.Duration `json:"latency_p99_ns"`
	Max  time.Duration `json:"latency_max_ns"`
}

func toMuxPhase(samples []time.Duration) MuxPhase {
	s := workload.ComputeLatencyStats(samples)
	return MuxPhase{Ops: s.N, Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max}
}

// MultiplexResult is the -experiment multiplex output: cold fetch
// latency for one element vs. the whole wide object over the batched v2
// transport, the serial-RPC ablation for contrast, and the transport
// counters that prove the batch path actually ran.
type MultiplexResult struct {
	// Elements is the width of the measured object; ElementBytes the
	// size of each element.
	Elements     int `json:"elements"`
	ElementBytes int `json:"element_bytes"`

	// SingleCold fetches one element from cold bindings: the full secure
	// pipeline plus one element round trip.
	SingleCold MuxPhase `json:"single_cold"`
	// BatchCold fetches all elements from cold bindings: the same
	// pipeline plus ONE GetElements exchange carrying every element.
	BatchCold MuxPhase `json:"batch_cold"`
	// SerialCold is the ablation: batch fetch disabled and one fetch
	// worker, so every element pays its own round trip in sequence.
	SerialCold MuxPhase `json:"serial_cold"`

	// BatchRatio is BatchCold.Mean / SingleCold.Mean — the acceptance
	// metric (a wide object over the multiplexed transport must cost at
	// most ~2x a single element, not Elements x).
	BatchRatio float64 `json:"batch_ratio"`
	// SerialRatio is SerialCold.Mean / SingleCold.Mean, for contrast.
	SerialRatio float64 `json:"serial_ratio"`

	// Transport counters accumulated across the run.
	BatchFetches  uint64 `json:"batch_fetch_total"`
	BatchElements uint64 `json:"batch_fetch_elements_total"`
	StreamsOpened uint64 `json:"transport_streams_opened_total"`
	NegotiatedV2  uint64 `json:"negotiations_v2"`

	// AblationIdentical reports the in-run check: the serial-RPC client
	// fetched bytes identical to the batched client's, element by
	// element.
	AblationIdentical bool `json:"ablation_identical"`
}

const (
	// muxElements is the object width: wide enough that per-element
	// round trips dominate a serial cold fetch.
	muxElements = 16
	// muxElementBytes keeps transfer time small relative to round trips,
	// which is the regime batching is about.
	muxElementBytes = 4 * workload.KB
)

// RunMultiplex measures the multiplexed transport with batched element
// fetch (the -experiment multiplex entry point). It publishes one
// 16-element document and measures, from cold bindings every sample:
//
//   - single: fetch one element — the secure pipeline plus one element
//     round trip, the baseline;
//   - batch: FetchAll over the v2 transport — the same pipeline plus a
//     single GetElements exchange carrying all 16 elements;
//   - serial: FetchAll with DisableBatchFetch and one worker — every
//     element pays its own sequential round trip.
//
// The run finishes by checking the batched and serial clients fetched
// byte-identical content.
func RunMultiplex(cfg Config) (*MultiplexResult, error) {
	cfg = cfg.withDefaults()
	clk := &benchClock{t: time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)}
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{TimeScale: cfg.TimeScale, Telemetry: tel, Clock: clk.Now})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		return nil, err
	}
	doc := workload.WideDoc(muxElements, muxElementBytes, WorkloadSeed)
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:         "multiplex.bench",
		TTL:          time.Hour,
		KeyAlgorithm: cfg.KeyAlgorithm,
		Clock:        clk.Now,
	})
	if err != nil {
		return nil, err
	}

	batched, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Now: clk.Now})
	if err != nil {
		return nil, err
	}
	defer batched.Close()
	serial, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		Now:               clk.Now,
		DisableBatchFetch: true,
		FetchWorkers:      1,
	})
	if err != nil {
		return nil, err
	}
	defer serial.Close()
	//lint:ignore ctxfirst the benchmark harness is the top of the call tree; there is no caller context to inherit
	ctx := context.Background()

	res := &MultiplexResult{Elements: muxElements, ElementBytes: muxElementBytes}

	// Single-element baseline: cold bindings, one element round trip.
	var single []time.Duration
	for i := 0; i < cfg.Iterations; i++ {
		batched.FlushBindings()
		start := now()
		if _, err := batched.Fetch(ctx, pub.OID, "el-00.bin"); err != nil {
			return nil, fmt.Errorf("multiplex single fetch: %w", err)
		}
		single = append(single, now().Sub(start))
	}
	res.SingleCold = toMuxPhase(single)

	// Batched whole-object fetch: one GetElements exchange per sample.
	content := make(map[string][]byte, muxElements)
	var batch []time.Duration
	for i := 0; i < cfg.Iterations; i++ {
		batched.FlushBindings()
		start := now()
		results, err := batched.FetchAll(ctx, pub.OID)
		if err != nil {
			return nil, fmt.Errorf("multiplex batch fetch: %w", err)
		}
		batch = append(batch, now().Sub(start))
		if len(results) != muxElements {
			return nil, fmt.Errorf("multiplex batch fetch %d returned %d elements, want %d", i, len(results), muxElements)
		}
		for _, r := range results {
			content[r.Element.Name] = r.Element.Data
		}
	}
	res.BatchCold = toMuxPhase(batch)

	// Serial ablation: individual sequential GetElement calls.
	serialContent := make(map[string][]byte, muxElements)
	var ser []time.Duration
	for i := 0; i < cfg.Iterations; i++ {
		serial.FlushBindings()
		start := now()
		results, err := serial.FetchAll(ctx, pub.OID)
		if err != nil {
			return nil, fmt.Errorf("multiplex serial fetch: %w", err)
		}
		ser = append(ser, now().Sub(start))
		if len(results) != muxElements {
			return nil, fmt.Errorf("multiplex serial fetch %d returned %d elements, want %d", i, len(results), muxElements)
		}
		for _, r := range results {
			serialContent[r.Element.Name] = r.Element.Data
		}
	}
	res.SerialCold = toMuxPhase(ser)

	if res.SingleCold.Mean > 0 {
		res.BatchRatio = float64(res.BatchCold.Mean) / float64(res.SingleCold.Mean)
		res.SerialRatio = float64(res.SerialCold.Mean) / float64(res.SingleCold.Mean)
	}

	res.AblationIdentical = len(content) == muxElements && len(serialContent) == muxElements
	for name, data := range content {
		if !bytes.Equal(serialContent[name], data) {
			res.AblationIdentical = false
		}
	}

	res.BatchFetches = tel.BatchFetches.Value()
	res.BatchElements = tel.BatchElements.Value()
	res.StreamsOpened = tel.StreamsOpened.Value()
	res.NegotiatedV2 = tel.Negotiations.With("v2").Value()
	return res, nil
}

// Format renders the multiplex experiment as a human-readable table.
func (r *MultiplexResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multiplexed transport with batched element fetch (%d x %s elements, client at %s)\n\n",
		r.Elements, fmtSize(r.ElementBytes), netsim.Paris)
	fmt.Fprintf(&b, "  %-14s %6s %12s %12s %12s %12s\n", "phase", "ops", "mean", "p50", "p95", "p99")
	row := func(name string, p MuxPhase) {
		fmt.Fprintf(&b, "  %-14s %6d %12s %12s %12s %12s\n", name, p.Ops,
			p.Mean.Round(time.Microsecond), p.P50.Round(time.Microsecond),
			p.P95.Round(time.Microsecond), p.P99.Round(time.Microsecond))
	}
	row("single cold", r.SingleCold)
	row("batch cold", r.BatchCold)
	row("serial cold", r.SerialCold)
	fmt.Fprintf(&b, "\n  batch ratio (batch cold / single cold): %.2fx (serial ablation: %.2fx)\n",
		r.BatchRatio, r.SerialRatio)
	fmt.Fprintf(&b, "  counters: batch_fetches=%d batch_elements=%d streams_opened=%d negotiations{v2}=%d\n",
		r.BatchFetches, r.BatchElements, r.StreamsOpened, r.NegotiatedV2)
	fmt.Fprintf(&b, "  ablation (serial client fetches identical bytes): %v\n", r.AblationIdentical)
	return b.String()
}
