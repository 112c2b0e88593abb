package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/video"
	"repro/xlink"
)

// Live loopback workload: one xlink.Listen server and one two-socket
// xlink.Dial client (Wi-Fi + LTE) on 127.0.0.1, in the shape of
// cmd/xlink-server and cmd/xlink-client with their default flags: each
// connection plays one 8 MiB video in 512 KiB range requests, at most
// liveMaxOutstanding in flight, and is then torn down; a run repeats
// connections until the clock runs out. A connection therefore always
// carries the same amount of work, so per-connection costs that grow with
// connection age are measured at the same ages on every run.
const (
	liveVideoSize      = 8 << 20
	liveChunk          = 512 << 10
	liveMaxOutstanding = 2
	// liveRequestTimeout fails a chunk request that has not finished.
	liveRequestTimeout = 10 * time.Second
	// livePanelConns is how many connections every run completes whatever
	// the clock says; peak memory is taken once they are done.
	livePanelConns = 20
)

// liveVideo is the video of the conn-th connection of a run: the demo
// video of cmd/xlink-client, with an ID, and so content, drawn from the
// seed.
func liveVideo(seed int64, conn int) video.Video {
	return video.Video{
		ID:             fmt.Sprintf("live-%d-%d", seed, conn),
		Size:           liveVideoSize,
		BitrateBps:     2_500_000,
		FPS:            30,
		FirstFrameSize: 128 << 10,
	}
}

// liveLinks lets the server's spans join the client request they serve.
// Both ends run in this process, so the client records each stream's
// request ID and span before it sends the request line.
type liveLinks struct {
	mu sync.Mutex
	m  map[uint64]spanRef
}

type spanRef struct{ req, span int64 }

func (l *liveLinks) put(stream uint64, ref spanRef) {
	l.mu.Lock()
	l.m[stream] = ref
	l.mu.Unlock()
}

func (l *liveLinks) take(stream uint64) spanRef {
	l.mu.Lock()
	defer l.mu.Unlock()
	ref := l.m[stream]
	delete(l.m, stream)
	return ref
}

// liveServer answers range requests with synthesized content, sending the
// first video frame through WriteFrame.
type liveServer struct {
	rec   *spanRecorder
	links *liveLinks
	ready chan struct{}
	ep    *xlink.Endpoint
	mu    sync.Mutex
	// pending holds partial request lines per stream.
	pending map[uint64]*strings.Builder
	vids    map[string]video.Video
	errs    []string
}

func (s *liveServer) onStreamData(_ time.Duration, rs *xlink.RecvStream, data []byte, fin bool) {
	<-s.ready
	id := rs.ID()
	s.mu.Lock()
	b := s.pending[id]
	if b == nil {
		if len(data) == 0 && fin {
			s.mu.Unlock()
			return // trailing FIN of a request already served
		}
		b = &strings.Builder{}
		s.pending[id] = b
	}
	b.Write(data)
	line := b.String()
	if !strings.Contains(line, "\n") && !fin {
		s.mu.Unlock()
		return
	}
	delete(s.pending, id)
	req, err := video.ParseRequest(line)
	v, known := s.vids[req.ID]
	if err == nil && !known {
		err = fmt.Errorf("unknown video %q", req.ID)
	}
	if err != nil {
		s.errs = append(s.errs, fmt.Sprintf("stream %d: %v", id, err))
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	ref := s.links.take(id)
	sp := s.rec.start("server.SynthesizeContent", ref.span, ref.req)
	payload := video.SynthesizeContent(req.ID, req.Offset, req.Length)
	s.rec.end(sp)
	ss := s.ep.StreamFor(id)
	if req.Offset < v.FirstFrameSize {
		ff := min(v.FirstFrameSize-req.Offset, uint64(len(payload)))
		sp = s.rec.start("server.WriteFrame", ref.span, ref.req)
		ss.WriteFrame(payload[:ff], 0)
		s.rec.end(sp)
		payload = payload[ff:]
	}
	if len(payload) > 0 {
		sp = s.rec.start("server.Write", ref.span, ref.req)
		ss.Write(payload)
		s.rec.end(sp)
	}
	sp = s.rec.start("server.Close", ref.span, ref.req)
	ss.Close()
	s.rec.end(sp)
}

// liveChunkState is one outstanding range request.
type liveChunkState struct {
	offset, length, got uint64
	want                []byte
	sentAt              time.Time
	span, waitSpan      int64
	req                 int64
}

// liveClient plays videos over the connection and verifies every byte.
// The player is driven only from the endpoint's stream callbacks, which the
// endpoint runs one at a time; the QoE provider, which the transport calls
// from its own goroutines, reads the signal published after each delivery.
type liveClient struct {
	rec   *spanRecorder
	links *liveLinks
	// connSpan is the span of the connection the client plays on.
	connSpan int64
	ready    chan struct{}
	ep       *xlink.Endpoint
	hs       chan struct{}
	sig      atomic.Pointer[xlink.QoESignal]

	mu      sync.Mutex
	v       video.Video
	player  *video.Player
	start   time.Time
	next    uint64 // next offset to request
	chunks  map[uint64]*liveChunkState
	reqSeq  *int64
	done    chan struct{}
	rcts    []float64 // ms, in completion order
	bad     []string
	payload uint64
}

func (c *liveClient) onHandshakeDone(time.Duration) {
	<-c.ready
	close(c.hs)
}

// qoe is the QoE provider: the player state as of the latest delivery.
func (c *liveClient) qoe() xlink.QoESignal {
	if s := c.sig.Load(); s != nil {
		return *s
	}
	return xlink.QoESignal{}
}

// play fetches one video and returns its first-frame latency, or an error
// when a request timed out.
func (c *liveClient) play(v video.Video) (time.Duration, error) {
	player := video.NewPlayer(v, video.DefaultPlayerConfig())
	start := time.Now()
	c.sig.Store(nil)
	c.mu.Lock()
	c.v = v
	c.player = player
	c.start = start
	c.next = 0
	c.chunks = make(map[uint64]*liveChunkState)
	c.done = make(chan struct{})
	done := c.done
	c.mu.Unlock()
	c.fill()

	timer := time.NewTimer(liveRequestTimeout)
	defer timer.Stop()
	for {
		select {
		case <-done:
			// The last delivery happened before done was closed, and no
			// callback touches this player after it.
			return player.Metrics(time.Since(start)).FirstFrameLatency, nil
		case <-timer.C:
			c.mu.Lock()
			stale := 0
			for _, ch := range c.chunks {
				if time.Since(ch.sentAt) >= liveRequestTimeout {
					stale++
				}
			}
			c.mu.Unlock()
			if stale > 0 {
				return 0, fmt.Errorf("%d chunk requests of %s timed out", stale, v.ID)
			}
			timer.Reset(liveRequestTimeout / 4)
		}
	}
}

// fill opens requests until liveMaxOutstanding are in flight. It must be
// called without c.mu held: it calls into the endpoint.
func (c *liveClient) fill() {
	for {
		c.mu.Lock()
		if len(c.chunks) >= liveMaxOutstanding || c.next >= c.v.Size {
			c.mu.Unlock()
			return
		}
		v := c.v
		off := c.next
		n := min(uint64(liveChunk), v.Size-off)
		c.next += n
		*c.reqSeq++
		ch := &liveChunkState{offset: off, length: n, req: *c.reqSeq}
		c.mu.Unlock()

		ch.want = video.SynthesizeContent(v.ID, off, n)
		ch.span = c.rec.start("live.request", c.connSpan, ch.req)
		ch.waitSpan = c.rec.start("live.first_byte", ch.span, ch.req)
		s := c.ep.OpenStream()
		id := s.ID()
		c.links.put(id, spanRef{req: ch.req, span: ch.span})
		ch.sentAt = time.Now()
		c.mu.Lock()
		c.chunks[id] = ch
		c.mu.Unlock()
		s.Write([]byte(video.FormatRequest(video.Request{ID: v.ID, Offset: off, Length: n})))
		s.Close()
	}
}

func (c *liveClient) onStreamData(_ time.Duration, rs *xlink.RecvStream, data []byte, fin bool) {
	<-c.ready
	now := time.Now()
	c.mu.Lock()
	ch := c.chunks[rs.ID()]
	if ch == nil {
		c.mu.Unlock()
		return
	}
	player, at := c.player, now.Sub(c.start)
	if ch.got == 0 && len(data) > 0 {
		c.rec.end(ch.waitSpan)
	}
	end := ch.got + uint64(len(data))
	if end > ch.length || !bytes.Equal(data, ch.want[ch.got:end]) {
		c.bad = append(c.bad, fmt.Sprintf("%s [%d,%d): content mismatch at byte %d",
			c.v.ID, ch.offset, ch.offset+ch.length, ch.offset+ch.got))
		end = min(end, ch.length)
	}
	ch.got = end
	c.payload += uint64(len(data))
	finished := false
	if fin {
		if ch.got != ch.length {
			c.bad = append(c.bad, fmt.Sprintf("%s [%d,%d): stream ended after %d bytes",
				c.v.ID, ch.offset, ch.offset+ch.length, ch.got))
		}
		delete(c.chunks, rs.ID())
		c.rcts = append(c.rcts, float64(now.Sub(ch.sentAt))/float64(time.Millisecond))
		finished = len(c.chunks) == 0 && c.next >= c.v.Size
	}
	c.mu.Unlock()

	player.OnData(at, uint64(len(data)))
	sig := player.QoESignal()
	c.sig.Store(&sig)
	if !fin {
		return
	}
	c.rec.end(ch.span)
	if finished {
		close(c.done)
		return
	}
	c.fill()
}

// liveConnResult is what one connection measured.
type liveConnResult struct {
	transfer         time.Duration
	firstFrames      []float64 // ms
	rcts             []float64 // ms, in completion order
	payload, packets uint64
	counts           counts
	failedRequests   int
	chunks           int
	errs             []string
}

// runLiveConn sets up one connection, plays its videos and tears it down.
func runLiveConn(rec *spanRecorder, seed int64, conn int, vids []video.Video, reqSeq *int64) liveConnResult {
	var r liveConnResult
	connSpan := rec.start("live.conn", 0, 0)
	defer rec.end(connSpan)
	links := &liveLinks{m: make(map[uint64]spanRef)}
	srv := &liveServer{rec: rec, links: links, ready: make(chan struct{}),
		pending: make(map[uint64]*strings.Builder), vids: make(map[string]video.Video)}
	for _, v := range vids {
		srv.vids[v.ID] = v
	}
	cl := &liveClient{rec: rec, links: links, connSpan: connSpan, ready: make(chan struct{}),
		hs: make(chan struct{}), reqSeq: reqSeq}

	setupSpan := rec.start("live.setup", connSpan, 0)
	server, err := xlink.Listen("127.0.0.1:0", xlink.LiveConfig{
		Scheme: xlink.SchemeXLINK, Seed: seed, OnStreamData: srv.onStreamData,
	})
	if err != nil {
		r.errs = append(r.errs, fmt.Sprintf("listen: %v", err))
		return r
	}
	defer server.Close()
	srv.ep = server
	close(srv.ready)
	client, err := xlink.Dial(server.LocalAddrs()[0].String(),
		[]string{"127.0.0.1:0", "127.0.0.1:0"},
		[]xlink.Technology{xlink.TechWiFi, xlink.TechLTE},
		xlink.LiveConfig{
			Scheme: xlink.SchemeXLINK, Seed: seed + 1,
			QoEProvider:     cl.qoe,
			OnHandshakeDone: cl.onHandshakeDone,
			OnStreamData:    cl.onStreamData,
		})
	if err != nil {
		r.errs = append(r.errs, fmt.Sprintf("dial: %v", err))
		return r
	}
	defer client.Close()
	cl.ep = client
	close(cl.ready)
	select {
	case <-cl.hs:
	case <-time.After(liveRequestTimeout):
		r.errs = append(r.errs, "handshake timed out")
		return r
	}
	rec.end(setupSpan)

	t1 := time.Now()
	for _, v := range vids {
		ff, err := cl.play(v)
		if err != nil {
			cl.mu.Lock()
			r.failedRequests += len(cl.chunks)
			cl.mu.Unlock()
			fmt.Fprintf(os.Stderr, "perfbench: connection %d: %v\n", conn, err)
			break
		}
		r.firstFrames = append(r.firstFrames, float64(ff)/float64(time.Millisecond))
	}
	r.transfer = time.Since(t1)

	cl.mu.Lock()
	r.rcts = cl.rcts
	r.chunks = len(cl.rcts) + r.failedRequests
	r.payload = cl.payload
	r.errs = append(r.errs, cl.bad...)
	cl.mu.Unlock()
	srv.mu.Lock()
	r.errs = append(r.errs, srv.errs...)
	srv.mu.Unlock()
	cs, ss := client.Stats(), server.Stats()
	r.packets = cs.SentPackets + cs.RecvPackets + ss.SentPackets + ss.RecvPackets
	c := &r.counts
	c.streamBytes = ss.StreamBytesSent
	c.rtxBytes = ss.RtxBytesSent
	c.reinjBytes = ss.ReinjectedBytesSent
	c.fecRepairBytes = ss.FECRepairBytesSent
	c.fecRecoveredBytes = cs.FECRecoveredBytes
	card := server.Scorecard()
	for _, p := range card.Paths[:card.NumPaths] {
		c.sentPkts += p.SentPackets
		c.lostPkts += p.LostPackets
	}
	c.qoeDecisions, c.qoeEnables = card.QoEDecisions, card.QoEEnables
	c.recvPkts = cs.RecvPackets + ss.RecvPackets
	for _, ep := range []*xlink.Endpoint{client, server} {
		snap := ep.Metrics().Snapshot()
		n, sum := registryHist(snap, obs.MetricBatchSize)
		c.batches += n
		c.batchPkts += uint64(sum)
		c.coalescedAcks += registryCounter(snap, obs.MetricCoalescedAcks)
	}
	return r
}

// liveWorkload runs connections until the clock runs out (at least
// livePanelConns), or exactly conns connections when conns > 0. A first,
// untimed connection warms the heap and the socket paths. A connection's
// wall time is its transfer time, from the first request to the last FIN.
func liveWorkload(rec *spanRecorder, seed int64, budget time.Duration, conns int) *outcome {
	o := &outcome{}
	var reqSeq int64
	draw := func(conn int) []video.Video { return []video.Video{liveVideo(seed, conn)} }
	if warm := runLiveConn(nil, seed*1000+999, -1, draw(-1), new(int64)); len(warm.errs) > 0 {
		o.errorf("warm-up connection: %s", warm.errs[0])
		return o
	}
	start := time.Now()
	for conn := 0; ; conn++ {
		if conns > 0 && conn >= conns {
			break
		}
		if conns == 0 && conn >= livePanelConns && time.Since(start) >= budget {
			break
		}
		if conn == livePanelConns {
			_, o.panelRSS = rusage()
		}
		var r liveConnResult
		_, cpu := timed(func() { r = runLiveConn(rec, seed*1000+int64(conn)*2, conn, draw(conn), &reqSeq) })
		o.ops = append(o.ops, op{wall: r.transfer, cpu: cpu, sessions: len(r.firstFrames),
			payload: r.payload, packets: r.packets})
		o.attempted += r.chunks
		o.failed += r.failedRequests
		o.liveRCTs = append(o.liveRCTs, r.rcts...)
		o.liveFirstFrames = append(o.liveFirstFrames, r.firstFrames...)
		o.counts.add(r.counts)
		for _, e := range r.errs {
			o.errorf("connection %d: %s", conn, e)
		}
		if len(r.errs) > 0 {
			break
		}
	}
	if o.panelRSS == 0 {
		_, o.panelRSS = rusage()
	}
	c := o.counts
	o.redundancy = ratio(c.reinjBytes+c.fecRepairBytes, c.streamBytes+c.rtxBytes+c.reinjBytes+c.fecRepairBytes)
	return o
}

// liveSetup brings up one connection (Listen, Dial, handshake) and closes
// it.
func liveSetup(seed int64) error {
	if r := runLiveConn(nil, seed, 0, nil, new(int64)); len(r.errs) > 0 {
		return fmt.Errorf("live set-up: %s", r.errs[0])
	}
	return nil
}

// liveAgeProbeChunks is how many chunks the RCT age probe fetches over its
// one connection.
const liveAgeProbeChunks = 400

// ageProbe is what the RCT age probe measured on its one long connection.
type ageProbe struct {
	// ratio is the last quarter's median chunk RCT over the first's.
	ratio float64
	// led is the connection's folded CPU profile; prof the raw profile.
	led                      ledger
	prof                     []byte
	goodputMbps, pktsPerCPUs float64
}

// liveAgeProbe fetches one long video over a single connection under the
// CPU profiler. A ratio above 1 means per-request cost grows with
// connection age.
func liveAgeProbe(seed int64) (ageProbe, error) {
	v := liveVideo(seed, -2)
	v.Size = liveAgeProbeChunks * liveChunk
	var seq int64
	var r liveConnResult
	var cpu time.Duration
	led, prof, err := profileOf(func() {
		_, cpu = timed(func() { r = runLiveConn(nil, seed, 0, []video.Video{v}, &seq) })
	})
	if err != nil {
		return ageProbe{}, err
	}
	if len(r.errs) > 0 || r.failedRequests > 0 || len(r.rcts) != liveAgeProbeChunks {
		return ageProbe{}, fmt.Errorf("live age probe: %d of %d chunks, errors %q",
			len(r.rcts), liveAgeProbeChunks, r.errs)
	}
	q := len(r.rcts) / 4
	return ageProbe{
		ratio:       stats.Percentile(r.rcts[len(r.rcts)-q:], 50) / stats.Percentile(r.rcts[:q], 50),
		led:         led,
		prof:        prof,
		goodputMbps: float64(r.payload) * 8 / 1e6 / r.transfer.Seconds(),
		pktsPerCPUs: float64(r.packets) / cpu.Seconds(),
	}, nil
}
