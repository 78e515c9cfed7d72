package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"kifmm"
	"kifmm/internal/service"
)

// The serve_cycle workload: fmmserve on loopback, two closed-loop clients
// (callers of an FMM are solvers waiting for the reply), each repeating a
// fixed eight-request cycle over its own clouds. It is the only workload
// where plans are mutated beside being read, where two Applies share one
// plan's engine free list, and where shards, sessions, the Yukawa per-level
// operators, the plan cache and the pool run at all.

type reqClass int

const (
	classInline reqClass = iota // evaluate with inline points: content-hash hit (decode + PlanKey)
	classID                     // evaluate by plan_id
	classStep                   // session step: 1 % of points moved, densities attached
	classShard                  // evaluate on a shards:2, shard_comm:"simple" plan
	classMiss                   // evaluate on a never-seen cloud: plan build, LRU eviction
	numClasses
)

var classNames = [numClasses]string{"inline", "id", "step", "shard", "miss"}

// serveCycle is the request order of one op. The miss comes last so that,
// with both clients in step, the plan it evicts is always an earlier miss:
// six working plans (two pinned by sessions) plus the two latest misses
// fill the cache of eight exactly.
var serveCycle = [8]reqClass{classInline, classID, classID, classID, classStep, classStep, classShard, classMiss}

const yukawaLambda = 5

// pendingCheck is one response waiting for its accuracy check, which runs
// between rounds, off the clock.
type pendingCheck struct {
	class  reqClass
	den    int
	sample []float64 // potentials at the client's sample targets
	err    error
	moves  []service.WireMove // classStep: applied to the tracked positions first
	cloud  []kifmm.Point      // classMiss: the cloud the request carried
}

// request is one timed request of the log the per-class metrics come from.
type request struct {
	class     reqClass
	round     int
	latency   time.Duration
	elapsedMS float64 // server-side service time from the response
}

type serveClient struct {
	id      int
	http    *http.Client
	base    string
	w       workload
	rng     *rand.Rand
	cloud   []kifmm.Point // inline, plan_id and sharded requests
	dens    [numDensities][]float64
	refs    [numDensities][]float64
	idx     []int
	sess    []kifmm.Point // session positions as of the last checked step
	sessDen [numDensities][]float64
	sessID  string

	inlineBody, idBody, shardBody [numDensities][]byte
	stepBody                      [2][]byte
	stepMoves                     [2][]service.WireMove
	missBody                      []byte
	missCloud                     []kifmm.Point

	pending  []pendingCheck
	log      []request
	reqBytes int64
	rspBytes int64
}

func wirePoints(pts []kifmm.Point) [][3]float64 {
	out := make([][3]float64, len(pts))
	for i, p := range pts {
		out[i] = [3]float64{p.X, p.Y, p.Z}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of floats, strings and ints always encode
	}
	return b
}

func (c *serveClient) options() service.SolverOptions {
	return service.SolverOptions{Kernel: "laplace", PointsPerBox: c.w.q, Order: c.w.order, Workers: 1}
}

// post sends one pre-encoded body and decodes the JSON reply into out.
func (c *serveClient) post(path string, body []byte, out any) error {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	c.reqBytes += int64(len(body))
	c.rspBytes += int64(len(raw))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// register builds the client's resident state on the server: the plan of
// its cloud, the sharded plan of the same cloud, and a Yukawa session.
func (c *serveClient) register() error {
	opts := c.options()
	var plan, shard service.PlanResponse
	if err := c.post("/v1/plan", mustJSON(service.PlanRequest{Points: wirePoints(c.cloud), Options: opts}), &plan); err != nil {
		return err
	}
	sopts := opts
	sopts.Shards, sopts.ShardComm = 2, "simple"
	if err := c.post("/v1/plan", mustJSON(service.PlanRequest{Points: wirePoints(c.cloud), Options: sopts}), &shard); err != nil {
		return err
	}
	yopts := opts
	yopts.Kernel, yopts.YukawaLambda = "yukawa", yukawaLambda
	var sess service.SessionResponse
	if err := c.post("/v1/session", mustJSON(service.SessionRequest{Points: wirePoints(c.sess), Options: yopts}), &sess); err != nil {
		return err
	}
	c.sessID = sess.SessionID
	for d := range c.dens {
		c.inlineBody[d] = mustJSON(service.EvaluateRequest{Points: wirePoints(c.cloud), Options: opts, Densities: c.dens[d]})
		c.idBody[d] = mustJSON(service.EvaluateRequest{PlanID: plan.PlanID, Densities: c.dens[d]})
		c.shardBody[d] = mustJSON(service.EvaluateRequest{PlanID: shard.PlanID, Densities: c.dens[d]})
	}
	return nil
}

// prepare generates and encodes the bodies that differ from cycle to cycle:
// the two session deltas and the never-seen cloud.
func (c *serveClient) prepare() {
	for s := range c.stepBody {
		moves := make([]service.WireMove, max(1, len(c.sess)/100))
		for m := range moves {
			p := ellipsoidPoint(c.rng)
			moves[m] = service.WireMove{ID: c.rng.Intn(len(c.sess)), To: [3]float64{p.X, p.Y, p.Z}}
		}
		c.stepMoves[s] = moves
		c.stepBody[s] = mustJSON(service.SessionStepRequest{Move: moves, Densities: c.sessDen[s]})
	}
	c.missCloud = genPoints(c.rng, c.w.n, true)
	c.missBody = mustJSON(service.EvaluateRequest{Points: wirePoints(c.missCloud), Options: c.options(), Densities: c.dens[0]})
}

// runCycle sends the eight requests of cycle k and returns the sum of their
// latencies. A latency runs from before the request is written to after
// the reply is decoded, which is what a caller waits for.
func (c *serveClient) runCycle(k int, rec *recorder) time.Duration {
	cyc := -1
	if rec != nil {
		cyc = rec.begin("cycle", "loop", k, -1, c.id)
	}
	var total time.Duration
	step := 0
	for j, class := range serveCycle {
		d := (k + j) % numDensities
		chk := pendingCheck{class: class, den: d}
		sp := -1
		if rec != nil {
			sp = rec.begin(classNames[class], "service", k, cyc, c.id)
		}
		var pot []float64
		var elapsed float64
		t0 := time.Now()
		switch class {
		case classStep:
			var r service.SessionStepResponse
			chk.den, chk.moves = step, c.stepMoves[step]
			chk.err = c.post("/v1/session/"+c.sessID+"/step", c.stepBody[step], &r)
			pot, elapsed = r.Potentials, r.ElapsedMS
			step++
		default:
			body := c.idBody[d]
			switch class {
			case classInline:
				body = c.inlineBody[d]
			case classShard:
				body = c.shardBody[d]
			case classMiss:
				body, chk.den, chk.cloud = c.missBody, 0, c.missCloud
			}
			var r service.EvaluateResponse
			chk.err = c.post("/v1/evaluate", body, &r)
			pot, elapsed = r.Potentials, r.ElapsedMS
		}
		lat := time.Since(t0)
		if rec != nil {
			rec.end(sp)
			rec.add("server", "kifmm", k, sp, c.id, time.Duration(elapsed*float64(time.Millisecond)))
		}
		total += lat
		chk.sample = sampleAt(pot, c.idx, 1)
		c.pending = append(c.pending, chk)
		c.log = append(c.log, request{class: class, round: k, latency: lat, elapsedMS: elapsed})
	}
	if rec != nil {
		rec.end(cyc)
	}
	return total
}

// flushChecks verifies every pending response against a direct sum at the
// sample targets.
func (c *serveClient) flushChecks(res *passResult) {
	for _, chk := range c.pending {
		res.Attempted++
		e := math.Inf(1)
		if chk.err == nil {
			var ref []float64
			switch chk.class {
			case classStep:
				for _, m := range chk.moves {
					c.sess[m.ID] = kifmm.Point{X: m.To[0], Y: m.To[1], Z: m.To[2]}
				}
				ref = directAt(kifmm.Yukawa, yukawaLambda, c.sess, c.sessDen[chk.den], c.idx)
			case classMiss:
				ref = directAt(kifmm.Laplace, 0, chk.cloud, c.dens[chk.den], c.idx)
			default:
				ref = c.refs[chk.den]
			}
			e = relL2(chk.sample, ref)
		}
		if !(e <= c.w.errTol) {
			res.Failed++
			fmt.Fprintf(os.Stderr, "bench: serve_cycle: client %d %s request failed: err=%v rel_l2=%.3g (threshold %.3g)\n",
				c.id, classNames[chk.class], chk.err, e, c.w.errTol)
		} else {
			res.RelErr = math.Max(res.RelErr, e)
		}
	}
	c.pending = c.pending[:0]
}

// scrape reads the server's /metrics into a map keyed by the full series
// name, labels included.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumPrefix adds up every series of m whose name starts with prefix (one
// series per shard rank).
func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// runServePass is one pass of serve_cycle. With rec non-nil it also records
// a span per cycle, per request and per server-side service time.
func runServePass(w workload, seed int64, seconds float64, rec *recorder) (*passResult, error) {
	res := &passResult{Layer: map[string]float64{}}
	cal0 := reading()
	t0 := time.Now()
	srv := service.New(service.Config{Workers: w.workers, CacheMaxPlans: 8})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		_ = srv.Shutdown(context.Background()) // background context: Shutdown cannot time out
	}()

	rng := rand.New(rand.NewSource(seed))
	clients := make([]*serveClient, w.workers)
	for i := range clients {
		c := &serveClient{id: i, http: ts.Client(), base: ts.URL, w: w, rng: rand.New(rand.NewSource(rng.Int63()))}
		c.cloud = genPoints(c.rng, w.n, true)
		c.sess = genPoints(c.rng, w.n, true)
		for d := 0; d < numDensities; d++ {
			c.dens[d] = genDensities(c.rng, w.n)
			c.sessDen[d] = genDensities(c.rng, w.n)
		}
		c.idx = genSampleIdx(c.rng, w.n)
		clients[i] = c
	}
	both := func(f func(c *serveClient) error) error {
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = f(c)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	round := func(k int) (time.Duration, []time.Duration) {
		samples := make([]time.Duration, len(clients))
		t := time.Now()
		_ = both(func(c *serveClient) error { samples[c.id] = c.runCycle(k, rec); return nil })
		block := time.Since(t)
		// Off the clock: checks, then the next cycle's bodies.
		for _, c := range clients {
			c.flushChecks(res)
			c.prepare()
		}
		return block, samples
	}
	if err := both(func(c *serveClient) error { c.prepare(); return c.register() }); err != nil {
		return nil, fmt.Errorf("serve_cycle set-up: %w", err)
	}
	_ = both(func(c *serveClient) error { c.runCycle(0, rec); return nil })
	setup := time.Since(t0)
	cal1 := reading()
	res.SetupRawS = setup.Seconds()
	res.SetupS = normalise(setup, cal0, cal1) / 1000
	for _, c := range clients {
		for d := range c.refs {
			c.refs[d] = directAt(kifmm.Laplace, 0, c.cloud, c.dens[d], c.idx)
		}
		c.flushChecks(res)
		c.prepare()
		c.log, c.reqBytes, c.rspBytes = nil, 0, 0
	}

	m0, err := scrape(clients[0].http, ts.URL)
	if err != nil {
		return nil, err
	}
	rounds := 0
	opLoop(res, seconds, func(i int) (time.Duration, []time.Duration) {
		rounds++
		return round(i + 1)
	})
	m1, err := scrape(clients[0].http, ts.URL)
	if err != nil {
		return nil, err
	}
	res.PeakRSSMB = peakRSSMB()
	serveLayers(res, clients, rounds, m0, m1)
	return res, nil
}

// serveLayers derives the service, session and shard metrics of the timed
// rounds from the clients' request logs and the /metrics deltas.
func serveLayers(res *passResult, clients []*serveClient, rounds int, m0, m1 map[string]float64) {
	L := res.Layer
	var byClass [numClasses][]float64
	var overhead []float64
	var reqB, rspB int64
	nReq := 0
	for _, c := range clients {
		for _, r := range c.log {
			// Round i of the loop ran between calibration readings i-1 and i.
			scale := normalise(time.Millisecond, res.Cal[r.round-1], res.Cal[r.round])
			lat := float64(r.latency) / float64(time.Millisecond) * scale
			byClass[r.class] = append(byClass[r.class], lat)
			overhead = append(overhead, lat-r.elapsedMS*scale)
			nReq++
		}
		reqB += c.reqBytes
		rspB += c.rspBytes
	}
	for cl, v := range byClass {
		L["service."+classNames[cl]+"_p50_ms"] = median(v)
	}
	L["service.overhead_ms"] = median(overhead)
	cycles := float64(rounds * len(clients))
	L["service.req_kb_per_cycle"] = float64(reqB) / 1024 / cycles
	L["service.resp_kb_per_cycle"] = float64(rspB) / 1024 / cycles

	delta := func(name string) float64 { return m1[name] - m0[name] }
	phase := func(p string) float64 { return delta(`kifmm_phase_seconds_total{phase="`+p+`"}`) * 1000 }
	L["service.queue_wait_ms"] = phase("QueueWait") / float64(nReq)
	L["service.plan_build_ms"] = phase("PlanBuild") / float64(nReq)
	L["service.apply_ms"] = phase("Apply") / float64(nReq)
	L["service.cache_hits"] = delta("fmmserve_plan_cache_hits_total") / cycles
	L["service.cache_misses"] = delta("fmmserve_plan_cache_misses_total") / cycles
	L["service.cache_evictions"] = delta("fmmserve_plan_cache_evictions_total") / cycles
	L["service.rejected"] = delta("fmmserve_tasks_rejected_total")

	steps := delta("fmmserve_session_steps_total")
	L["session.step_ms"] = phase("SessionStep") / steps
	L["session.migrated_per_step"] = delta("fmmserve_session_migrated_points_total") / steps
	L["session.patched_per_step"] = delta("fmmserve_session_patched_nodes_total") / steps
	L["session.replans"] = delta("fmmserve_session_replans_total")

	applies := m1[`fmmserve_shard_applies{backend="simple",rank="0"}`] - m0[`fmmserve_shard_applies{backend="simple",rank="0"}`]
	shard := func(series string) float64 {
		return (sumPrefix(m1, series+"{") - sumPrefix(m0, series+"{")) / applies
	}
	L["shard.bytes_per_apply"] = shard("fmmserve_shard_bytes_sent")
	L["shard.msgs_per_apply"] = shard("fmmserve_shard_msgs_sent")
	L["shard.reduce_octants_per_apply"] = shard("fmmserve_shard_reduce_octants_sent")
}
