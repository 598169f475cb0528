package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"globedoc/internal/workload"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: with fewer, the "tail" is a handful of values and
// moves from run to run by chance.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// and whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps q*n from rounding up past an exact rank
	// (0.99*1000 is 990.0000000000001 in binary floating point).
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// tailPercentile picks the highest of p99, p95, p90 and p50 that has
// minBeyond samples beyond it, for per-layer tails whose sample count
// varies by workload. It returns the quantile used with the value.
func tailPercentile(sorted []float64) (q, v float64) {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.50} {
		if v, ok := percentile(sorted, q); ok {
			return q, v
		}
	}
	v, _ = percentile(sorted, 0.5)
	return 0.5, v
}

// leastDisturbed reduces per-window values to the quartile at their
// undisturbed end: the 25th percentile when lower is better, the 75th
// when higher is. Interference from outside the process — another tenant
// of the host taking CPU time — only ever slows a window down, so this
// quartile moves less between runs than the median while a change to the
// code still moves every window.
func leastDisturbed(values []float64, higherIsBetter bool) float64 {
	q := 0.25
	if higherIsBetter {
		q = 0.75
	}
	v, _ := percentile(sortedCopy(values), q)
	return v
}

// windowPercentile is the least-disturbed quartile over windows of each
// window's nearest-rank q-quantile, and whether every window had
// minBeyond samples beyond its quantile.
func windowPercentile(windows [][]float64, q float64) (float64, bool) {
	var vs []float64
	enough := len(windows) > 0
	for _, w := range windows {
		v, ok := percentile(w, q)
		if len(w) > 0 {
			vs = append(vs, v)
		}
		enough = enough && ok
	}
	return leastDisturbed(vs, false), enough
}

// median of unsorted values (the mean of the middle pair for even n).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// --- seeded inputs ----------------------------------------------------------

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *workload.Rand) int {
	u := r.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(r *workload.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// streamSeed derives the seed of one load generator (a connection, a
// visitor, the writer) from the run's seed, so every generator's sequence
// depends only on --seed and its own index.
func streamSeed(seed uint64, stream int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(stream+1)*0xbf58476d1ce4e5b9
}

// browseStream yields the element indices one browse connection
// requests: Zipf(0.9) over a popularity ranking of the elements.
type browseStream struct {
	r    *workload.Rand
	z    *zipf
	rank []int // rank -> element index
}

func newBrowseStream(seed uint64, conn int, rank []int) *browseStream {
	return &browseStream{
		r:    workload.NewRand(streamSeed(seed, conn)),
		z:    newZipf(len(rank), 0.9),
		rank: rank,
	}
}

func (b *browseStream) next() int { return b.rank[b.z.draw(b.r)] }

// uniformStream yields uniform indices in [0, n).
type uniformStream struct {
	r *workload.Rand
	n int
}

func newUniformStream(seed uint64, stream, n int) *uniformStream {
	return &uniformStream{r: workload.NewRand(streamSeed(seed, stream)), n: n}
}

func (u *uniformStream) next() int { return u.r.Intn(u.n) }

// --- process resource usage -------------------------------------------------

// usage is a snapshot of the process's cumulative CPU time and heap
// allocation; the difference of two snapshots brackets one phase.
type usage struct {
	cpu        time.Duration // user + system
	allocBytes uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), allocBytes: s[0].Value.Uint64()}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, allocBytes: u.allocBytes - v.allocBytes}
}

// heapBytes is the live-plus-unswept heap object bytes right now.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
