package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// meter measures one timed load phase, cut into windows. Throughput, CPU
// per operation and the median latency are computed per window and
// reported as the least-disturbed quartile of windows, so a few seconds
// of interference from outside the process move one window rather than
// the result. Allocation per operation, the latency tail and the heap
// peak cover the whole phase, so a cost the program incurs in only a few
// windows — a garbage collection of a larger heap, an eviction burst —
// still shows in them.
type meter struct {
	start, end time.Time
	windows    int

	served    atomic.Int64 // operations counted in throughput
	ops       atomic.Int64 // operations counted in the per-op costs
	attempted atomic.Int64
	failed    atomic.Int64

	mu sync.Mutex
	// reads and writes hold latencies in ms of operations completed
	// within the phase, per window.
	reads, writes [][]float64

	snaps []meterSnap // at each window boundary, starting at start
	done  chan struct{}
}

type meterSnap struct {
	t        time.Time
	u        usage
	served   int64
	ops      int64
	heapPeak uint64 // highest heap sample in the window ending here
}

// maxReported bounds how many failed operations a phase logs.
const maxReported = 5

// heapSampleEvery is the heap sampling period for heap_peak_mb.
const heapSampleEvery = 50 * time.Millisecond

// startMeter begins a phase of length d split into windows windows; the
// sampler goroutine it starts ends by itself at the phase end, and wait
// returns once it has.
func startMeter(d time.Duration, windows int) *meter {
	if windows < 1 {
		windows = 1
	}
	m := &meter{windows: windows, done: make(chan struct{}),
		reads: make([][]float64, windows), writes: make([][]float64, windows)}
	m.start = time.Now()
	m.end = m.start.Add(d)
	m.snaps = append(m.snaps, meterSnap{t: m.start, u: readUsage()})
	go m.sample()
	return m
}

func (m *meter) sample() {
	defer close(m.done)
	win := m.end.Sub(m.start) / time.Duration(m.windows)
	var peak uint64
	for w := 1; w <= m.windows; w++ {
		boundary := m.start.Add(time.Duration(w) * win)
		if w == m.windows {
			boundary = m.end
		}
		for {
			if h := heapBytes(); h > peak {
				peak = h
			}
			left := time.Until(boundary)
			if left <= 0 {
				break
			}
			if left > heapSampleEvery {
				left = heapSampleEvery
			}
			time.Sleep(left)
		}
		m.snaps = append(m.snaps, meterSnap{
			t: time.Now(), u: readUsage(),
			served: m.served.Load(), ops: m.ops.Load(), heapPeak: peak,
		})
		peak = 0
	}
}

// running reports whether the phase is still on; load generators stop
// issuing operations once it is false.
func (m *meter) running() bool { return time.Now().Before(m.end) }

// read accounts one finished read (a browser request or visit): it counts
// toward throughput and the per-op costs, and its latency is kept if it
// completed inside the phase.
func (m *meter) read(latency time.Duration, err error) { m.record(latency, err, true) }

// write accounts one finished update: it counts toward the per-op costs
// but not throughput.
func (m *meter) write(latency time.Duration, err error) { m.record(latency, err, false) }

func (m *meter) record(latency time.Duration, err error, isRead bool) {
	m.attempted.Add(1)
	if err != nil {
		if m.failed.Add(1) <= maxReported {
			fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
		}
		return
	}
	now := time.Now()
	if now.After(m.end) {
		return
	}
	m.ops.Add(1)
	if isRead {
		m.served.Add(1)
	}
	w := int(int64(now.Sub(m.start)) * int64(m.windows) / int64(m.end.Sub(m.start)))
	if w >= m.windows {
		w = m.windows - 1
	}
	m.mu.Lock()
	if isRead {
		m.reads[w] = append(m.reads[w], ms(latency))
	} else {
		m.writes[w] = append(m.writes[w], ms(latency))
	}
	m.mu.Unlock()
}

// wait blocks until the sampler has taken its last snapshot.
func (m *meter) wait() { <-m.done }

// phaseStats is what one measured phase reports.
type phaseStats struct {
	reads, writes []float64 // sorted latencies, ms
	// readWin and writeWin are the same latencies split by window, each
	// window sorted.
	readWin, writeWin [][]float64
	throughput        float64 // served per second
	cpuMsPerOp        float64
	allocKBPerOp      float64
	heapPeakMB        float64
	attempted         int64
	failed            int64
	ops               int64
	windowSeconds     float64
}

func (m *meter) stats() phaseStats {
	m.wait()
	m.mu.Lock()
	var reads, writes []float64
	readWin := make([][]float64, m.windows)
	writeWin := make([][]float64, m.windows)
	for w := 0; w < m.windows; w++ {
		reads = append(reads, m.reads[w]...)
		writes = append(writes, m.writes[w]...)
		readWin[w], writeWin[w] = sortedCopy(m.reads[w]), sortedCopy(m.writes[w])
	}
	m.mu.Unlock()
	reads, writes = sortedCopy(reads), sortedCopy(writes)
	var tput, cpu []float64
	var heapPeak uint64
	for i := 1; i < len(m.snaps); i++ {
		a, b := m.snaps[i-1], m.snaps[i]
		if b.heapPeak > heapPeak {
			heapPeak = b.heapPeak
		}
		secs := b.t.Sub(a.t).Seconds()
		ops := float64(b.ops - a.ops)
		if secs <= 0 || ops <= 0 {
			continue
		}
		d := b.u.sub(a.u)
		tput = append(tput, float64(b.served-a.served)/secs)
		cpu = append(cpu, ms(d.cpu)/ops)
		p50, _ := percentile(readWin[i-1], 0.5)
		p99, _ := percentile(readWin[i-1], 0.99)
		w50, _ := percentile(writeWin[i-1], 0.5)
		fmt.Printf("# window %d: %.1f ops/s, %.4f CPU ms/op, %.2f CPUs busy, read p50 %.4f p99 %.4f ms, write p50 %.4f ms\n",
			i, tput[len(tput)-1], cpu[len(cpu)-1], d.cpu.Seconds()/secs, p50, p99, w50)
	}
	var allocKB float64
	last := m.snaps[len(m.snaps)-1]
	if ops := last.ops - m.snaps[0].ops; ops > 0 {
		allocKB = float64(last.u.sub(m.snaps[0].u).allocBytes) / 1024 / float64(ops)
	}
	return phaseStats{
		reads:         reads,
		writes:        writes,
		readWin:       readWin,
		writeWin:      writeWin,
		throughput:    leastDisturbed(tput, true),
		cpuMsPerOp:    leastDisturbed(cpu, false),
		allocKBPerOp:  allocKB,
		heapPeakMB:    float64(heapPeak) / (1 << 20),
		attempted:     m.attempted.Load(),
		failed:        m.failed.Load(),
		ops:           m.ops.Load(),
		windowSeconds: m.end.Sub(m.start).Seconds() / float64(m.windows),
	}
}
