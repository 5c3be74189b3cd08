package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fmossim/internal/server"
)

// spanHeader carries the client-side span id to the worker so the
// server span nests under the request that caused it.
const spanHeader = "X-Bench-Span"

// cluster is the loopback fmossimd pool: in-process workers, each a
// server.Manager with one runner behind an httptest server, reached
// through one shared transport.
type cluster struct {
	mgrs      []*server.Manager
	srvs      []*httptest.Server
	probes    []*serverProbe
	urls      []string
	transport *http.Transport
}

func startCluster(workers int) *cluster {
	c := &cluster{transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	for i := 0; i < workers; i++ {
		mgr := server.NewManager(server.Config{MaxJobs: 1})
		p := &serverProbe{next: mgr.Handler()}
		srv := httptest.NewServer(p)
		c.mgrs = append(c.mgrs, mgr)
		c.srvs = append(c.srvs, srv)
		c.probes = append(c.probes, p)
		c.urls = append(c.urls, srv.URL)
	}
	return c
}

// Close stops every worker and waits for its handlers and runners.
func (c *cluster) Close() {
	for i := range c.srvs {
		c.srvs[i].Close()
		c.mgrs[i].Close()
	}
	c.transport.CloseIdleConnections()
}

// reset returns every worker to its post-setup state between runs:
// finished jobs are removed (their retained results would otherwise
// grow the heap run after run) and the uploaded recording is evicted,
// so each distributed run pays its own upload.
func (c *cluster) reset(fp string) error {
	for i, mgr := range c.mgrs {
		for _, s := range mgr.List() {
			if !s.State.Terminal() {
				return fmt.Errorf("worker %d: job %s still %s", i, s.ID, s.State)
			}
			mgr.Remove(s.ID)
		}
		req, err := http.NewRequest(http.MethodDelete, c.urls[i]+"/recordings/"+fp, nil)
		if err != nil {
			return err
		}
		resp, err := c.transport.RoundTrip(req)
		if err != nil {
			return fmt.Errorf("evicting recording: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			return fmt.Errorf("evicting recording: %s", resp.Status)
		}
	}
	return nil
}

// client returns the coordinator's HTTP client: plain when w is nil,
// counting and tracing every exchange otherwise.
func (c *cluster) client(w *wireStats) *http.Client {
	if w == nil {
		return &http.Client{Transport: c.transport}
	}
	w.base = c.transport
	return &http.Client{Transport: w}
}

// observe attaches s to every worker's handler (nil detaches).
func (c *cluster) observe(s *serverStats) {
	for _, p := range c.probes {
		p.stats.Store(s)
	}
}

// serverStats accumulates what the workers' handlers saw during one
// traced run, over all workers.
type serverStats struct {
	tr *Tracer

	mu       sync.Mutex
	requests int
	rejected int
	uploadS  float64
	uploadB  int64
	submitS  float64
	streamS  float64
	streamB  int64
}

// serverProbe wraps one worker's Manager.Handler. With no stats
// attached it only forwards the request.
type serverProbe struct {
	next  http.Handler
	stats atomic.Pointer[serverStats]
}

func (p *serverProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	st := p.stats.Load()
	if st == nil {
		p.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	kind := requestKind(r)
	span := st.tr.Begin(parent, "server", "server "+kind)
	body := &countReader{r: r.Body}
	r.Body = body
	cw := &countWriter{ResponseWriter: w}
	start := time.Now()
	p.next.ServeHTTP(cw, r)
	d := time.Since(start).Seconds()
	st.tr.End(span)

	st.mu.Lock()
	defer st.mu.Unlock()
	st.requests++
	if cw.status == http.StatusTooManyRequests {
		st.rejected++
	}
	switch kind {
	case "upload":
		st.uploadS += d
		st.uploadB += body.n
	case "submit":
		st.submitS += d
	case "stream":
		st.streamS += d
		st.streamB += cw.n
	}
}

// requestKind names the job-API call a request makes.
func requestKind(r *http.Request) string {
	switch {
	case r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/recordings/"):
		return "upload"
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		return "submit"
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/stream"):
		return "stream"
	}
	return strings.ToLower(r.Method)
}

type countReader struct {
	r io.ReadCloser
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) Close() error { return c.r.Close() }

// countWriter counts response bytes and keeps the Flusher the job
// stream needs.
type countWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (c *countWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wireStats is the coordinator-side RoundTripper: it opens a span per
// exchange (closed when the response body is), tags the request with
// the span id, and counts dispatches and received bytes.
type wireStats struct {
	base   http.RoundTripper
	tr     *Tracer
	parent int
	start  time.Time // when the distributed run was entered

	mu            sync.Mutex
	dispatches    int
	rxB           int64
	firstDispatch time.Duration
}

func (w *wireStats) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := requestKind(req)
	if kind == "submit" {
		w.mu.Lock()
		if w.dispatches == 0 {
			w.firstDispatch = time.Since(w.start)
		}
		w.dispatches++
		w.mu.Unlock()
	}
	span := w.tr.Begin(w.parent, "distrib", "distrib "+kind)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(span))
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		w.tr.End(span)
		return nil, err
	}
	resp.Body = &wireBody{ReadCloser: resp.Body, w: w, span: span}
	return resp, nil
}

// wireBody ends its exchange's span on the first EOF, error or Close.
type wireBody struct {
	io.ReadCloser
	w    *wireStats
	span int
	once sync.Once
}

func (b *wireBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.w.mu.Lock()
	b.w.rxB += int64(n)
	b.w.mu.Unlock()
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *wireBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *wireBody) finish() { b.once.Do(func() { b.w.tr.End(b.span) }) }
