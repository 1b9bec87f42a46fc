package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans stay in memory and
// are written out when the run ends.
type span struct {
	ID, Parent int // Parent 0: none
	Name       string
	Start, End time.Time
	Bytes      int   // request plus reply body
	TookUS     int64 // the callee's own account of its time
}

// recorder collects the spans the proxies record.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a new list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// proxy sits between kbrouter and one kbserve shard and records a span
// for every /query and /estimate RPC that passes through it.
type proxy struct {
	name   string
	target string
	client *http.Client
	rec    *recorder
	srv    *http.Server
	URL    string
}

func startProxy(name, target string, rec *recorder) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{
		name:   name,
		target: target,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}},
		rec:    rec,
		URL:    "http://" + ln.Addr().String(),
	}
	p.srv = &http.Server{Handler: p}
	go p.srv.Serve(ln) // returns once close is called
	return p, nil
}

func (p *proxy) close() {
	p.srv.Close()
	p.client.CloseIdleConnections()
}

func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	resp, err := p.client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	w.Write(reply) // a failed write shows up as the router's error
	end := time.Now()
	if path := r.URL.Path; path == "/query" || path == "/estimate" {
		var took struct {
			TookUS int64 `json:"took_us"`
		}
		json.Unmarshal(reply, &took) // /estimate replies carry no took_us
		p.rec.add(span{Name: p.name + " " + path, Start: start, End: end, Bytes: len(body) + len(reply), TookUS: took.TookUS})
	}
}
