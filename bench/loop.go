package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"slaplace/api"
	"slaplace/internal/core"
)

// target is where a client posts plan requests: the daemon over its
// socket, or a handler in process (the traced run and the tests).
type target interface {
	post(body []byte, binary bool) (status int, reply []byte, err error)
}

func setCodecHeaders(h http.Header, binary bool) {
	ct := api.ContentTypeJSON
	if binary {
		ct = api.ContentTypeBinary
	}
	h.Set("Content-Type", ct)
	h.Set("Accept", ct)
}

// handlerTarget serves requests straight from an http.Handler.
type handlerTarget struct{ h http.Handler }

func (t handlerTarget) post(body []byte, binary bool) (int, []byte, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	setCodecHeaders(req.Header, binary)
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes(), nil
}

// httpTarget is one client's keep-alive connection to a daemon.
type httpTarget struct {
	url    string
	client *http.Client
}

func newHTTPTarget(baseURL string) *httpTarget {
	return &httpTarget{
		url: baseURL + "/v1/plan",
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

func (t *httpTarget) post(body []byte, binary bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, t.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	setCodecHeaders(req.Header, binary)
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

func encodeRequest(req *api.PlanRequest, binary bool) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if binary {
		err = api.EncodePlanRequestBinary(&buf, req)
	} else {
		err = api.EncodePlanRequest(&buf, req)
	}
	return buf.Bytes(), err
}

func decodeResponse(reply []byte, binary bool) (*api.PlanResponse, error) {
	if binary {
		return api.DecodePlanResponseBinary(bytes.NewReader(reply))
	}
	return api.DecodePlanResponse(bytes.NewReader(reply))
}

// encodeResponse renders a reply exactly as the daemon does: the binary
// codec, or one JSON document with a trailing newline.
func encodeResponse(resp *api.PlanResponse, binary bool) ([]byte, error) {
	if binary {
		var buf bytes.Buffer
		err := api.EncodePlanResponseBinary(&buf, resp)
		return buf.Bytes(), err
	}
	data, err := json.Marshal(resp)
	return append(data, '\n'), err
}

// auditEvery is how often a reply is re-checked against the planner's
// own invariants; the cheap checks run on every reply.
const auditEvery = 10

// checkReply verifies one reply for a cluster whose session stood at
// cycle prevCycle: the cycle count moved by exactly one and the tier is
// reported. With audit set the actions are also replayed against snap —
// the exact snapshot the request described — with core.CheckPlan, and
// the wire delta is checked for freeing-first order. bootstrap marks a
// session's first reply, whose delta is relative to an empty placement
// rather than to snap and is therefore not replayed.
func checkReply(resp *api.PlanResponse, prevCycle int, snap *api.Snapshot, audit, bootstrap bool) error {
	if resp.Cycle != prevCycle+1 {
		return fmt.Errorf("cluster %s: reply cycle %d after %d", resp.ClusterID, resp.Cycle, prevCycle)
	}
	if resp.PlanMode == "" {
		return fmt.Errorf("cluster %s cycle %d: no planMode", resp.ClusterID, resp.Cycle)
	}
	if !audit {
		return nil
	}
	delta := make([]core.Action, len(resp.Delta))
	for i, a := range resp.Delta {
		act, err := a.CoreAction()
		if err != nil {
			return err
		}
		delta[i] = act
	}
	if err := core.FreeingFirst(delta); err != nil {
		return fmt.Errorf("cluster %s cycle %d: %w", resp.ClusterID, resp.Cycle, err)
	}
	plan := &core.Plan{Actions: delta}
	if resp.Plan != nil {
		var err error
		if plan, err = resp.Plan.CorePlan(); err != nil {
			return err
		}
	} else if bootstrap {
		return nil
	}
	st, err := snap.CoreState()
	if err != nil {
		return err
	}
	if err := core.CheckPlan(st, plan); err != nil {
		return fmt.Errorf("cluster %s cycle %d: %w", resp.ClusterID, resp.Cycle, err)
	}
	return nil
}

// recorder accumulates one client's observations over the timed
// sections. Each client owns one; they are merged when the run ends.
type recorder struct {
	attempted, failed int
	// latency is the client-observed time of each successful POST
	// /v1/plan; at is when it completed, on the clock of timed sections
	// only (see begin).
	latency, at   []time.Duration
	think, verify []time.Duration // generator time around each request
	modes         map[string]int  // replies per plan tier
	actions       int             // delta actions over all replies
	// wire holds request+response body bytes of the first wireSample
	// timed requests: a fixed count, so the mean repeats exactly.
	wire                []int
	reqBytes, respBytes int
	firstErr            error

	// busy is the length of the timed sections that have ended; section
	// is when the current one began.
	busy    time.Duration
	section time.Time
}

const wireSample = 200

func newRecorder() *recorder { return &recorder{modes: map[string]int{}} }

// begin opens a timed section: a stretch of the run that counts towards
// throughput. Whatever happens between sections — failover's daemon
// restarts, the other workloads' windows — takes no time on this clock.
func (r *recorder) begin() { r.section = time.Now() }

// end closes the section.
func (r *recorder) end() { r.busy += time.Since(r.section) }

func (r *recorder) fail(err error) error {
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
	return err
}

// sample records one successful timed operation that has just
// completed.
func (r *recorder) sample(lat time.Duration) {
	r.attempted++
	r.latency = append(r.latency, lat)
	r.at = append(r.at, r.busy+time.Since(r.section))
}

func (r *recorder) ok(lat time.Duration, reqBytes, respBytes int, resp *api.PlanResponse) {
	r.sample(lat)
	r.modes[resp.PlanMode]++
	r.actions += len(resp.Delta)
	r.reqBytes += reqBytes
	r.respBytes += respBytes
	if len(r.wire) < wireSample {
		r.wire = append(r.wire, reqBytes+respBytes)
	}
}

// merge adds a client's observations. The clients of one workload share
// their sections, so busy is the caller's to keep.
func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.latency = append(r.latency, o.latency...)
	r.at = append(r.at, o.at...)
	r.think = append(r.think, o.think...)
	r.verify = append(r.verify, o.verify...)
	for m, n := range o.modes {
		r.modes[m] += n
	}
	r.actions += o.actions
	r.reqBytes += o.reqBytes
	r.respBytes += o.respBytes
	for _, w := range o.wire {
		if len(r.wire) < wireSample {
			r.wire = append(r.wire, w)
		}
	}
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// loop is one cluster's closed control loop: report, wait for the
// plan, enact it, let a cycle pass. The first request carries the whole
// snapshot and asks for the whole plan; with deltas set, later ones send
// and ask for deltas only.
type loop struct {
	twin   *twin
	binary bool
	deltas bool
	// replies counts the replies this loop's session has produced, which
	// survive a daemon restart (the session is restored, not re-created).
	replies int
	// auditAll audits every reply instead of every auditEvery-th.
	auditAll bool
}

// step runs one cycle against tg. The request is encoded before the
// clock starts and the reply is fully read, but not decoded, when it
// stops. rec may be nil (warm-up). Any failure leaves the twin out of
// step with its session, so the caller must stop on error.
func (l *loop) step(tg target, rec *recorder) error {
	t0 := time.Now()
	var req *api.PlanRequest
	if l.deltas && l.replies > 0 {
		req = l.twin.deltaRequest(api.ReplyDelta)
	} else {
		req = l.twin.fullRequest(api.ReplyFull)
	}
	body, err := encodeRequest(req, l.binary)
	if err != nil {
		return err
	}
	t1 := time.Now()
	status, reply, err := tg.post(body, l.binary)
	t2 := time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("cluster %s: status %d: %s", l.twin.id, status, bytes.TrimSpace(reply))
	}
	var resp *api.PlanResponse
	if err == nil {
		resp, err = decodeResponse(reply, l.binary)
	}
	if err == nil {
		audit := l.auditAll || l.replies%auditEvery == 0
		err = checkReply(resp, l.twin.cycle, &l.twin.snap, audit, l.replies == 0)
	}
	t3 := time.Now()
	if err == nil {
		err = l.twin.enact(resp)
	}
	if err != nil {
		if rec != nil {
			return rec.fail(err)
		}
		return err
	}
	l.replies++
	l.twin.advance()
	if rec != nil {
		rec.ok(t2.Sub(t1), len(body), len(reply), resp)
		rec.think = append(rec.think, t1.Sub(t0)+time.Since(t3))
		rec.verify = append(rec.verify, t3.Sub(t2))
	}
	return nil
}
