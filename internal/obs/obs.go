// Package obs is the service's observability layer: a dependency-free,
// lock-cheap metrics registry with Prometheus text-format exposition, a
// bounded ring of per-batch pipeline traces, and the pprof/version debug
// plumbing the serve command mounts behind -debug-addr.
//
// # Registry
//
// A Registry holds named metrics and renders them in the Prometheus text
// exposition format (version 0.0.4) via WritePrometheus or Handler. Three
// metric kinds cover the service's needs:
//
//   - Counter: a monotone atomic uint64 (Inc/Add).
//   - Histogram: fixed cumulative buckets over float64 observations, with
//     the sum and count Prometheus derives quantiles from.
//   - CounterVec: a family of counters keyed by one label value (e.g.
//     re-bootstrap reasons).
//
// CounterFunc and GaugeFunc register read-through metrics whose value is
// produced by a closure at scrape time — the idiom for counters the
// service already maintains elsewhere (stream.Stats fields), avoiding
// double bookkeeping on the hot path. Every gauge is one of these.
//
// All metric constructors are get-or-create by name: registering a name
// twice returns the existing metric (func variants replace the closure),
// which is what lets a follower's replay generations re-register their
// metrics across re-bootstraps while counters stay cumulative. Every
// mutating method is safe on a nil receiver and on metrics obtained from
// a nil *Registry, so an uninstrumented caller pays a nil check and
// nothing else.
//
// # Hot-path cost
//
// Counter.Add is one atomic add; Histogram.Observe is a short bounds scan,
// one atomic add and a CAS loop on the sum. Neither allocates. The
// scrape path takes the registry lock, but scrapes are rare and never
// block a writer for more than the duration of a buffer append.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// LatencyBuckets is the default histogram bucket layout for durations in
// seconds: 50µs to 2.5s, roughly logarithmic — wide enough for a batch
// Update on a large graph and fine enough for a snapshot pointer load.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5,
}

// CountBuckets is the default bucket layout for small cardinalities
// (edits per batch, batches per catch-up poll).
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// metric is one registered family: it renders its HELP/TYPE header and
// sample lines into the exposition buffer.
type metric interface {
	metricName() string
	write(b *bytes.Buffer)
}

// Registry is a named collection of metrics with Prometheus exposition.
// The zero value is not usable; create one with NewRegistry. A nil
// *Registry is a valid no-op sink: every constructor returns nil and
// every nil metric's methods do nothing.
type Registry struct {
	mu     sync.Mutex
	byName map[string]metric
	order  []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// validName reports whether name matches the Prometheus metric/label name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the existing metric under name (get-or-create), or
// stores and returns the one built by mk. Name collisions across kinds
// and invalid names are programmer errors and panic.
func (r *Registry) register(name string, mk func() metric) metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := mk()
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the registry's monotone counter under name, creating it
// on first use. Counter names should end in _total by convention.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, func() metric { return &Counter{name: name, help: help} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as a different kind", name))
	}
	return c
}

// CounterFunc registers a read-through counter whose value fn produces at
// scrape time. Re-registering the same name replaces the closure — the
// re-bootstrap idiom: a follower's fresh replay generation points the
// family at its own live counters.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, "counter", fn)
}

// GaugeFunc registers a read-through gauge; see CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, "gauge", fn)
}

func (r *Registry) registerFunc(name, help, typ string, fn func() float64) {
	if r == nil {
		return
	}
	m := r.register(name, func() metric { return &funcMetric{name: name, help: help, typ: typ} })
	f, ok := m.(*funcMetric)
	if !ok || f.typ != typ {
		panic(fmt.Sprintf("obs: %q already registered as a different kind", name))
	}
	f.fmu.Lock()
	f.fn = fn
	f.fmu.Unlock()
}

// Histogram returns the registry's histogram under name with the given
// bucket upper bounds (ascending, +Inf implicit; nil selects
// LatencyBuckets), creating it on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = LatencyBuckets
	}
	m := r.register(name, func() metric {
		h := &Histogram{name: name, help: help, bounds: slices.Clone(buckets)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		return h
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as a different kind", name))
	}
	return h
}

// CounterVec returns the registry's labeled counter family under name,
// creating it on first use. label is the single label key.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	if !validName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	m := r.register(name, func() metric {
		return &CounterVec{name: name, help: help, label: label, kids: make(map[string]*Counter)}
	})
	v, ok := m.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as a different kind", name))
	}
	return v
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b bytes.Buffer
	r.mu.Lock()
	for _, m := range r.order {
		m.write(&b)
	}
	r.mu.Unlock()
	_, err := w.Write(b.Bytes())
	return err
}

// Handler serves the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

func writeHeader(b *bytes.Buffer, name, help, typ string) {
	b.WriteString("# HELP ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(help)
	b.WriteString("\n# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')
}

func writeFloat(b *bytes.Buffer, v float64) {
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
}

// Counter is a monotone counter. All methods are nil-safe.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.name }

func (c *Counter) write(b *bytes.Buffer) {
	writeHeader(b, c.name, c.help, "counter")
	b.WriteString(c.name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(c.v.Load(), 10))
	b.WriteByte('\n')
}

// funcMetric is a read-through counter or gauge: the value comes from a
// closure at scrape time.
type funcMetric struct {
	name, help, typ string
	fmu             sync.Mutex
	fn              func() float64
}

func (f *funcMetric) metricName() string { return f.name }

func (f *funcMetric) write(b *bytes.Buffer) {
	f.fmu.Lock()
	fn := f.fn
	f.fmu.Unlock()
	writeHeader(b, f.name, f.help, f.typ)
	b.WriteString(f.name)
	b.WriteByte(' ')
	writeFloat(b, fn())
	b.WriteByte('\n')
}

// Histogram is a fixed-bucket histogram over float64 observations. Observe
// is allocation-free and safe for concurrent use; all methods are
// nil-safe.
type Histogram struct {
	name, help string
	bounds     []float64       // ascending upper bounds; +Inf implicit
	counts     []atomic.Uint64 // per-bucket (non-cumulative), len(bounds)+1
	sumBits    atomic.Uint64   // float64 bits of the running sum
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// Count returns the total number of observations, summed over the
// buckets (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) write(b *bytes.Buffer) {
	writeHeader(b, h.name, h.help, "histogram")
	// Count is derived from the bucket reads so the rendered +Inf bucket
	// always equals the rendered count even mid-scrape.
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b.WriteString(h.name)
		b.WriteString(`_bucket{le="`)
		writeFloat(b, bound)
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	b.WriteString(h.name)
	b.WriteString(`_bucket{le="+Inf"} `)
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
	b.WriteString(h.name)
	b.WriteString("_sum ")
	writeFloat(b, math.Float64frombits(h.sumBits.Load()))
	b.WriteByte('\n')
	b.WriteString(h.name)
	b.WriteString("_count ")
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
}

// CounterVec is a family of counters keyed by one label value. All
// methods are nil-safe.
type CounterVec struct {
	name, help, label string
	vmu               sync.Mutex
	kids              map[string]*Counter
}

// With returns the counter for the given label value, creating it on
// first use (nil on a nil family).
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.vmu.Lock()
	defer v.vmu.Unlock()
	c, ok := v.kids[value]
	if !ok {
		c = &Counter{}
		v.kids[value] = c
	}
	return c
}

func (v *CounterVec) metricName() string { return v.name }

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	var b bytes.Buffer
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func (v *CounterVec) write(b *bytes.Buffer) {
	writeHeader(b, v.name, v.help, "counter")
	v.vmu.Lock()
	values := make([]string, 0, len(v.kids))
	for val := range v.kids {
		values = append(values, val)
	}
	sort.Strings(values)
	for _, val := range values {
		b.WriteString(v.name)
		b.WriteByte('{')
		b.WriteString(v.label)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(val))
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatUint(v.kids[val].Value(), 10))
		b.WriteByte('\n')
	}
	v.vmu.Unlock()
}
