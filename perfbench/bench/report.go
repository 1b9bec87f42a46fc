package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/eval"
	"kbharvest/internal/pipeline"
	"kbharvest/internal/synth"
)

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics. It sorts xs in place.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// BlockQuantile splits xs, in the order taken, into blocks of size
// block, takes each whole block's q-quantile and returns the median of
// those. A slow spell of the machine then moves one block, not the figure.
func BlockQuantile(xs []float64, block int, q float64) float64 {
	var per []float64
	for i := 0; i+block <= len(xs); i += block {
		per = append(per, Quantile(append([]float64(nil), xs[i:i+block]...), q))
	}
	return Quantile(per, 0.5)
}

// Millis converts durations to milliseconds.
func Millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// FactF1 scores the relational facts in st against the ground truth of
// the synthetic world kbbuild generates at this seed.
func FactF1(st *core.Store, seed int64) float64 {
	w := synth.Generate(synth.DefaultConfig().Scaled(Scale), seed)
	tp, fp, fn := pipeline.EvaluateFacts(&pipeline.Result{KB: st, World: w})
	return eval.Score(tp, fp, fn).F1
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the benchmark's result line.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Set records a metric.
func (r *Report) Set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{value, unit}
}

// Count adds a phase's operations to the report.
func (r *Report) Count(t Tally) {
	r.Attempted += t.Attempted
	r.Failed += t.Failed
}

// FailFrac is the share of attempted operations that failed: a transport
// error, a non-200 or partial reply, or a wrong answer.
func (r *Report) FailFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// Write prints every metric by name and unit, then the failure share,
// then the result as one JSON line, which is last on w.
func (r *Report) Write(w io.Writer, title string) error {
	r.Correct = r.Attempted > 0 && r.Failed == 0
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-32s %14.6g ratio (%d failed of %d attempted)\n", "fail_frac", r.FailFrac(), r.Failed, r.Attempted)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
