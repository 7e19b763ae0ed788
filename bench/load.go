package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"
)

// conns is the number of client connections every HTTP phase uses;
// arrival i belongs to connection i mod conns.
const conns = 2

// spinWindow is how long before an arrival's due time a paced worker
// stops sleeping and spins, so the send is not late by a timer wakeup.
const spinWindow = 300 * time.Microsecond

// lateLimit marks an arrival the generator itself sent late: its
// connection was free and its due time had passed, yet the send came
// this much later. (An arrival that waits for its connection's previous
// response is queueing, which latency-from-due-time already counts.)
// More than lateShare of a phase's arrivals past the limit means the
// generator, not the server, shaped the schedule, and the run is
// reported invalid.
const (
	lateLimit = 10 * time.Millisecond
	lateShare = 0.01
)

// fn is one function of a workload: a one-line echo whose source and
// key have the same length for every index, so virtual latencies do not
// depend on which function a request names.
type fn struct {
	id     int
	key    string
	source string
	prefix []byte // the request body up to the argument value
}

func makeFn(workload string, seed int64, idx int) fn {
	f := fn{
		id:  1000000 + idx,
		key: fmt.Sprintf("%s-%06d/f%07d", workload, seed%1000000, idx),
	}
	f.source = fmt.Sprintf("function main(args) { return {fn: %d, echo: args.n}; }", f.id)
	key, _ := json.Marshal(f.key)
	src, _ := json.Marshal(f.source)
	f.prefix = []byte(fmt.Sprintf(`{"key":%s,"source":%s,"args":{"n":`, key, src))
	return f
}

// arrival is one generated request: which function, which (unique)
// argument, and when it is due relative to the phase start (paced
// phases only).
type arrival struct {
	fn  int // index into the phase's fns
	n   int64
	due time.Duration
}

// argSeq hands out per-request unique, fixed-width argument values in
// an order the seed fixes.
type argSeq struct{ next, step int64 }

const argSpace = 9000000 // values 1000000..9999999: always seven digits

func newArgSeq(rng *rand.Rand) *argSeq {
	// 7919 is prime and shares no factor with argSpace, so the walk
	// visits every value once before repeating.
	return &argSeq{next: rng.Int63n(argSpace), step: 7919}
}

func (a *argSeq) take() int64 {
	v := 1000000 + a.next
	a.next = (a.next + a.step) % argSpace
	return v
}

// poisson fills in due times: exponential gaps at rate per second.
func poisson(rng *rand.Rand, arr []arrival, rate float64) {
	t := 0.0
	for i := range arr {
		t += rng.ExpFloat64() / rate
		arr[i].due = time.Duration(t * float64(time.Second))
	}
}

// phase is one fixed-count block of load against one server.
type phase struct {
	name     string
	fns      []fn
	arrivals []arrival
	paced    bool   // open loop on due times; otherwise closed loop
	allow    string // the only path a response may report
	pin      string // expected.json set its virtual latencies belong to ("" = allow)
	conns    int    // connections driving it (0 = conns)
	segments int    // equal runs of arrivals it is cut into for per-segment statistics (0 = one)
	spans    *recorder
}

// phaseResult is what one phase measured and checked.
type phaseResult struct {
	name      string
	attempted int
	failed    int
	reasons   []string  // first few failures, verbatim
	latUS     []float64 // paced: completion − due; closed: completion − send
	lagUS     []float64 // paced: send − max(due, previous response on the connection)
	segs      []segment // one per completed run of arrivals
	late      int       // arrivals the generator sent more than lateLimit late
	elapsed   time.Duration
	serverCPU float64 // seconds of CPU the server used over the phase
	clientCPU float64 // seconds of CPU this process used over the phase
	rssKB     [2]float64
}

func (r *phaseResult) fail(format string, a ...interface{}) {
	r.failed++
	if len(r.reasons) < 5 {
		r.reasons = append(r.reasons, r.name+": "+fmt.Sprintf(format, a...))
	}
}

// segment is one of the equal runs of arrivals a phase is cut into.
// Statistics are taken per segment and the median segment reported, so
// that a stall of the machine, which lands in one or two of them, moves
// the result little.
type segment struct {
	end   time.Duration // when its last arrival completed, since the phase began
	latUS []float64     // its arrivals' latencies
}

// segmentRPS returns each segment's completion rate.
func (r *phaseResult) segmentRPS() []float64 {
	var rps []float64
	prev := time.Duration(0)
	for _, s := range r.segs {
		if dt := (s.end - prev).Seconds(); dt > 0 {
			rps = append(rps, float64(len(s.latUS))/dt)
		}
		prev = s.end
	}
	return rps
}

// segmentPercentiles returns percentile p of the latencies of each
// segment.
func (r *phaseResult) segmentPercentiles(p float64) []float64 {
	out := make([]float64, len(r.segs))
	for i, s := range r.segs {
		out[i] = percentile(sorted(s.latUS), p)
	}
	return out
}

func (r *phaseResult) rps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.attempted) / r.elapsed.Seconds()
}

// request renders the raw HTTP/1.1 request for one arrival.
func (p *phase) request(dst []byte, a arrival) []byte {
	body := append([]byte(nil), p.fns[a.fn].prefix...)
	body = strconv.AppendInt(body, a.n, 10)
	body = append(body, `}}`...)
	dst = append(dst, "POST /invoke HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// client is one keep-alive HTTP/1.1 connection with a response reader
// that allocates next to nothing per request: the generator shares two cores
// with the server, so its own cost per request is kept small and is
// reported (loadgen.cpu_us_per_req).
type client struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*client, error) {
	c, err := net.DialTimeout("tcp", addr, reqTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &client{c: c, br: bufio.NewReaderSize(c, 8192)}, nil
}

func (cl *client) close() {
	if cl.c != nil {
		cl.c.Close()
	}
}

// do sends one prepared request and appends the response body to dst.
func (cl *client) do(req, dst []byte) (status int, out []byte, err error) {
	cl.c.SetDeadline(time.Now().Add(reqTimeout))
	if _, err := cl.c.Write(req); err != nil {
		return 0, dst, err
	}
	return readResponse(cl.br, dst)
}

func trimCRLF(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

var (
	hdrLength   = []byte("content-length:")
	hdrEncoding = []byte("transfer-encoding:")
	tokChunked  = []byte("chunked")
	httpPrefix  = []byte("HTTP/1.")
)

// headerValue returns the value of header name if line carries it.
func headerValue(line, name []byte) ([]byte, bool) {
	if len(line) < len(name) || !bytes.EqualFold(line[:len(name)], name) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(name):]), true
}

// parseUint reads an unsigned number in the given base (10 or 16).
func parseUint(b []byte, base int) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		var d int
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int(c-'A') + 10
		default:
			return 0, false
		}
		if n = n*base + d; n > 1<<30 {
			return 0, false
		}
	}
	return n, true
}

// readResponse parses one HTTP/1.1 response (Content-Length or chunked)
// and appends its body to dst.
func readResponse(br *bufio.Reader, dst []byte) (int, []byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, dst, err
	}
	line = trimCRLF(line)
	status, ok := 0, false
	if len(line) >= 12 && bytes.HasPrefix(line, httpPrefix) && line[8] == ' ' {
		status, ok = parseUint(line[9:12], 10)
	}
	if !ok {
		return 0, dst, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		if line, err = br.ReadSlice('\n'); err != nil {
			return 0, dst, err
		}
		if line = trimCRLF(line); len(line) == 0 {
			break
		}
		if v, ok := headerValue(line, hdrLength); ok {
			if length, ok = parseUint(v, 10); !ok {
				return 0, dst, fmt.Errorf("bad content-length %q", v)
			}
		} else if v, ok := headerValue(line, hdrEncoding); ok {
			chunked = bytes.Contains(bytes.ToLower(v), tokChunked)
		}
	}
	// body appends the next n bytes of the stream to dst.
	body := func(n int) error {
		at := len(dst)
		dst = append(dst, make([]byte, n)...)
		_, err := io.ReadFull(br, dst[at:])
		return err
	}
	switch {
	case chunked:
		for {
			if line, err = br.ReadSlice('\n'); err != nil {
				return 0, dst, err
			}
			line = trimCRLF(line)
			if i := bytes.IndexByte(line, ';'); i >= 0 {
				line = line[:i]
			}
			size, ok := parseUint(line, 16)
			if !ok {
				return 0, dst, fmt.Errorf("bad chunk size %q", line)
			}
			if size == 0 {
				// Trailers (none expected) end with an empty line.
				for {
					if line, err = br.ReadSlice('\n'); err != nil {
						return 0, dst, err
					}
					if len(trimCRLF(line)) == 0 {
						return status, dst, nil
					}
				}
			}
			if err := body(size); err != nil {
				return 0, dst, err
			}
			if _, err := br.Discard(2); err != nil {
				return 0, dst, err
			}
		}
	case length >= 0:
		err := body(length)
		return status, dst, err
	default:
		return 0, dst, errors.New("response has neither Content-Length nor chunked encoding")
	}
}

// invokeReply is the part of /invoke's response the benchmark checks.
type invokeReply struct {
	Path      string    `json:"path"`
	LatencyMS float64   `json:"latency_ms"`
	Output    echoReply `json:"output"`
}

// echoReply is the driver's reply to the echo function.
type echoReply struct {
	OK     bool `json:"ok"`
	Result struct {
		Fn   int   `json:"fn"`
		Echo int64 `json:"echo"`
	} `json:"result"`
}

func (e echoReply) matches(f fn, n int64) bool {
	return e.OK && e.Result.Fn == f.id && e.Result.Echo == n
}

// run drives the phase against addr from conns connections and checks
// every response. pid is the server's, for its CPU and RSS.
func (p *phase) run(addr string, pid int, exp *expected) (*phaseResult, error) {
	n := len(p.arrivals)
	conns := conns
	if p.conns > 0 {
		conns = p.conns
	}
	pin := p.pin
	if pin == "" {
		pin = p.allow
	}
	res := &phaseResult{
		name:      p.name,
		attempted: n,
		latUS:     make([]float64, n),
	}
	if p.paced {
		res.lagUS = make([]float64, n)
	}

	// Everything the timed loop needs is rendered beforehand: request
	// bytes in one arena, response bodies into per-connection arenas
	// that are validated after the clock stops.
	reqOff := make([]int, n+1)
	var reqBuf []byte
	for i, a := range p.arrivals {
		reqOff[i] = len(reqBuf)
		reqBuf = p.request(reqBuf, a)
	}
	reqOff[n] = len(reqBuf)
	status := make([]int, n)
	errs := make([]error, n)
	bodyOff := make([][2]int, n)
	arenas := make([][]byte, conns)
	clients := make([]*client, conns)
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.close()
			}
		}
	}()
	for c := range clients {
		cl, err := dial(addr)
		if err != nil {
			return nil, fmt.Errorf("%s: dial: %w", p.name, err)
		}
		clients[c] = cl
		arenas[c] = make([]byte, 0, (n/conns+1)*192)
	}

	nseg := min(max(p.segments, 1), n)
	perSeg := n / nseg
	res.segs = make([]segment, nseg)
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	_, res.rssKB[0], _ = procRSSKB(pid)
	self0 := selfCPUSeconds()

	var wg sync.WaitGroup
	var abort error
	var abortMu sync.Mutex
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := clients[c]
			var free time.Duration // when this connection's last response arrived
			for i := c; i < n; i += conns {
				var sent time.Duration
				if p.paced {
					due := p.arrivals[i].due
					for {
						d := due - time.Since(start)
						if d <= 0 {
							break
						}
						if d > spinWindow {
							time.Sleep(d - spinWindow)
						}
					}
					sent = time.Since(start)
					res.lagUS[i] = float64(sent-max(due, free)) / 1e3
				} else {
					sent = time.Since(start)
				}
				at := len(arenas[c])
				st, out, err := cl.do(reqBuf[reqOff[i]:reqOff[i+1]], arenas[c])
				done := time.Since(start)
				free = done
				arenas[c] = out
				status[i], errs[i], bodyOff[i] = st, err, [2]int{at, len(out)}
				from := sent
				if p.paced {
					from = p.arrivals[i].due
				}
				res.latUS[i] = float64(done-from) / 1e3
				if (i+1)%perSeg == 0 && (i+1)/perSeg <= len(res.segs) {
					// The worker that completes a segment's last arrival
					// marks its end (the other connection is at most one
					// request behind).
					res.segs[(i+1)/perSeg-1].end = done
				}
				if p.spans != nil {
					p.spans.add(span{Name: "http.invoke", Req: uint64(i), Parent: -1,
						Start: p.spans.at(start.Add(sent)), End: p.spans.at(start.Add(done))})
				}
				if err != nil {
					// A broken connection cannot be reused; the failed
					// request stays failed, later ones get a new one.
					cl.close()
					ncl, derr := dial(addr)
					if derr != nil {
						abortMu.Lock()
						abort = fmt.Errorf("%s: reconnect after %v: %w", p.name, err, derr)
						abortMu.Unlock()
						return
					}
					cl = ncl
					clients[c] = ncl
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if abort != nil {
		return nil, abort
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	res.serverCPU = cpu1 - cpu0
	for k := range res.segs {
		res.segs[k].latUS = res.latUS[k*perSeg : (k+1)*perSeg]
	}
	res.clientCPU = selfCPUSeconds() - self0
	_, res.rssKB[1], _ = procRSSKB(pid)

	// Validation, off the clock.
	for i, a := range p.arrivals {
		if p.paced && res.lagUS[i] > float64(lateLimit)/1e3 {
			res.late++
		}
		if errs[i] != nil {
			res.fail("request %d: %v", i, errs[i])
			continue
		}
		body := arenas[i%conns][bodyOff[i][0]:bodyOff[i][1]]
		if status[i] != 200 {
			res.fail("request %d: HTTP %d: %s", i, status[i], body)
			continue
		}
		var r invokeReply
		if err := json.Unmarshal(body, &r); err != nil {
			res.fail("request %d: bad JSON %q: %v", i, body, err)
			continue
		}
		f := p.fns[a.fn]
		switch {
		case !r.Output.matches(f, a.n):
			res.fail("request %d: wrong echo: want fn=%d echo=%d, got %s", i, f.id, a.n, body)
			continue
		case r.Path != p.allow:
			res.fail("request %d: path %q, this phase allows only %q", i, r.Path, p.allow)
			continue
		}
		if !exp.allows(pin, r.LatencyMS) {
			res.fail("request %d: virtual latency %.3f ms is not in expected.json's %q set", i, r.LatencyMS, pin)
		}
	}
	if p.paced && float64(res.late) > lateShare*float64(n) {
		res.fail("generator fell behind: it sent %d of %d arrivals more than %v late", res.late, n, lateLimit)
	}
	return res, nil
}
