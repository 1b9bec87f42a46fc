package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// OpenRate is each serving workload's fixed open-loop arrival rate, well
// below the closed-loop throughput of the commit that defined the
// benchmark (about 3,100/s for lookup, 600/s for join), so that latency
// is measured short of saturation, where queueing would magnify the
// machine's own noise. BENCHMARK.json records the same rates.
var OpenRate = map[string]float64{Lookup: 1500, Join: 200}

// Client sends a mix's queries to one /query endpoint over keep-alive
// connections and checks every reply against the expected answers.
type Client struct {
	url    string
	http   *http.Client
	want   []Answer
	mix    *Mix
	bodies [][]byte // pre-encoded request bodies, one per distinct query
}

// NewClient returns a client for base (http://host:port) that keeps up to
// conns connections alive.
func NewClient(base string, conns int, m *Mix, want []Answer) *Client {
	c := &Client{
		url: base + "/query",
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		}},
		want:   want,
		mix:    m,
		bodies: make([][]byte, len(m.Queries)),
	}
	for i, q := range m.Queries {
		c.bodies[i], _ = json.Marshal(struct {
			Patterns []string `json:"patterns"`
		}{q.Patterns}) // a []string always marshals
	}
	return c
}

// Close drops the client's idle connections.
func (c *Client) Close() { c.http.CloseIdleConnections() }

// Op is the outcome of one request.
type Op struct {
	Sent, Done time.Time // Done: reply body fully read, before the check
	Bytes      int       // request plus reply body bytes
	TookUS     int64     // the server's own took_us
	Err        error     // transport error, bad status or wrong answer
}

// Do sends query qi and checks the reply.
func (c *Client) Do(ctx context.Context, qi int) Op {
	op := Op{Sent: time.Now(), Bytes: len(c.bodies[qi])}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(c.bodies[qi]))
	if err != nil {
		op.Done, op.Err = time.Now(), err
		return op
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		op.Done, op.Err = time.Now(), err
		return op
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	op.Done = time.Now()
	op.Bytes += len(body)
	if err != nil {
		op.Err = err
		return op
	}
	op.TookUS, op.Err = Check(resp.StatusCode, body, c.want[qi])
	return op
}

// Tally sums one load phase.
type Tally struct {
	Attempted, Failed int
	Elapsed           time.Duration
	Lat               []time.Duration // per request
	Late              []time.Duration // open loop only: send time minus due time
	Ends              []time.Duration // since the phase started, correct answers only
	FirstErr          error
}

// WindowRates splits the phase into windows of length w and returns the
// rate of correct answers in each whole window.
func (t *Tally) WindowRates(w time.Duration) []float64 {
	counts := make([]int, int(t.Elapsed/w))
	for _, e := range t.Ends {
		if i := int(e / w); i < len(counts) {
			counts[i]++
		}
	}
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / w.Seconds()
	}
	return rates
}

func (t *Tally) merge(o *Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Lat = append(t.Lat, o.Lat...)
	t.Ends = append(t.Ends, o.Ends...)
	if t.FirstErr == nil {
		t.FirstErr = o.FirstErr
	}
}

// count records op's outcome; start is when the phase started.
func (t *Tally) count(op Op, start time.Time) {
	t.Attempted++
	if op.Err != nil {
		t.Failed++
		if t.FirstErr == nil {
			t.FirstErr = op.Err
		}
		return
	}
	t.Ends = append(t.Ends, op.Done.Sub(start))
}

// Closed runs a closed loop: each of clients sends its next request as
// soon as its previous reply is in, for d. next hands out positions in
// the mix's sequence. If each is non-nil, it is called with every
// completed request, from the client's goroutine.
func (c *Client) Closed(ctx context.Context, clients int, d time.Duration, next *atomic.Int64, each func(qi int, op Op)) Tally {
	var (
		mu    sync.Mutex
		total Tally
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t Tally
			for ctx.Err() == nil && time.Now().Before(deadline) {
				qi := c.mix.At(next.Add(1) - 1)
				op := c.Do(ctx, qi)
				t.count(op, start)
				t.Lat = append(t.Lat, op.Done.Sub(op.Sent))
				if each != nil {
					each(qi, op)
				}
			}
			mu.Lock()
			total.merge(&t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.Elapsed = time.Since(start)
	return total
}

// Open runs an open loop: request j is due at start + j/rate, for d, sent
// by the first of workers free at or after its due time. Latency runs
// from the due time, so a stall also charges the requests queued behind
// it; Late records how far behind schedule each was sent. Both are in
// schedule order.
func (c *Client) Open(ctx context.Context, workers int, rate float64, d time.Duration, next *atomic.Int64) Tally {
	n := int64(rate * d.Seconds())
	first := next.Add(n) - n
	total := Tally{Lat: make([]time.Duration, n), Late: make([]time.Duration, n)}
	var (
		slot atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t Tally
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for ctx.Err() == nil {
				j := slot.Add(1) - 1
				if j >= n {
					break
				}
				due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						continue
					}
				}
				op := c.Do(ctx, c.mix.At(first+j))
				t.count(op, start)
				// Each j belongs to one worker: the writes never overlap.
				total.Lat[j] = op.Done.Sub(due)
				total.Late[j] = op.Sent.Sub(due)
			}
			mu.Lock()
			total.merge(&t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.Elapsed = time.Since(start)
	return total
}
