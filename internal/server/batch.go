// Request batching and backpressure. Two mechanisms compose here:
//
//   - a bounded worker pool: every admitted request becomes (part of) one
//     queued unit of work; the queue is sized to the admission limit so an
//     admitted request is never dropped — saturation is signalled at
//     admission time with 429 + Retry-After, before any state is created;
//   - a coalescer for singleton /v1/color lookups: concurrent single-node
//     requests against the same mapping spec are merged, within a small
//     flush window, into one batch that resolves the registry handle once
//     and colors all nodes in one pass.
//
// Graceful shutdown flushes every armed batch and keeps the workers alive
// until all in-flight HTTP handlers have received their results, so
// accepted requests complete even while the listener is already closed.
package server

import (
	"context"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/coloring"
	"repro/internal/obsv"
	"repro/internal/tree"
)

// pool is a fixed-size worker pool over a bounded queue.
type pool struct {
	tasks chan func()
	wg    sync.WaitGroup
	delay time.Duration // optional per-task latency injection (load testing)
	hook  func()        // optional test hook run before each task
}

// newPool starts `workers` goroutines over a queue of the given depth.
func newPool(workers, depth int, delay time.Duration, hook func()) *pool {
	p := &pool{tasks: make(chan func(), depth), delay: delay, hook: hook}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				if p.hook != nil {
					p.hook()
				}
				if p.delay > 0 {
					time.Sleep(p.delay)
				}
				fn()
			}
		}()
	}
	return p
}

// trySubmit enqueues without blocking; false means the queue is full.
func (p *pool) trySubmit(fn func()) bool {
	select {
	case p.tasks <- fn:
		return true
	default:
		return false
	}
}

// depth returns the number of queued (not yet started) tasks.
func (p *pool) depth() int { return len(p.tasks) }

// close stops accepting work and waits for the workers to drain the queue.
func (p *pool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// colorResult is the answer to one coalesced singleton lookup.
type colorResult struct {
	color   int
	modules int
	err     error
}

// colorJob is one waiting singleton lookup.
type colorJob struct {
	node tree.Node
	out  chan colorResult // buffered(1); the worker never blocks sending
	tr   *obsv.Trace      // nil unless the request is sampled
	enq  time.Time        // enqueue time; set only when tr != nil
}

// colorGroup accumulates singleton lookups against one mapping spec.
type colorGroup struct {
	spec      MappingSpec
	jobs      []colorJob
	timer     *time.Timer
	flushed   bool
	submitted time.Time // when the group was handed to the pool
}

// coalescer merges singleton color lookups per mapping key.
type coalescer struct {
	mu            sync.Mutex
	groups        map[string]*colorGroup
	window        time.Duration
	maxBatch      int
	pool          *pool
	reg           *Registry
	met           *Metrics
	disableKernel bool // force the per-node fallback (A/B benchmarking)
	closed        bool
}

func newCoalescer(window time.Duration, maxBatch int, pool *pool, reg *Registry, met *Metrics, disableKernel bool) *coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &coalescer{
		groups:        make(map[string]*colorGroup),
		window:        window,
		maxBatch:      maxBatch,
		pool:          pool,
		reg:           reg,
		met:           met,
		disableKernel: disableKernel,
	}
}

// enqueue admits one singleton lookup and returns the channel its result
// will arrive on. With batching disabled (window 0 or maxBatch 1) the job
// is submitted immediately as a batch of one; otherwise it joins the
// armed group for its mapping key, which flushes when it reaches maxBatch
// or when the flush window elapses, whichever comes first. ok=false means
// the coalescer is shut down (the caller maps this to 503).
func (c *coalescer) enqueue(spec MappingSpec, n tree.Node, tr *obsv.Trace) (<-chan colorResult, bool) {
	job := colorJob{node: n, out: make(chan colorResult, 1), tr: tr}
	if tr != nil {
		job.enq = time.Now()
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false
	}
	if c.window <= 0 || c.maxBatch <= 1 {
		c.mu.Unlock()
		c.submit(&colorGroup{spec: spec, jobs: []colorJob{job}})
		return job.out, true
	}
	key := spec.Key()
	g := c.groups[key]
	if g == nil {
		g = &colorGroup{spec: spec}
		c.groups[key] = g
		g.timer = time.AfterFunc(c.window, func() { c.flushKey(key, g) })
	}
	g.jobs = append(g.jobs, job)
	if len(g.jobs) >= c.maxBatch {
		c.detachLocked(key, g)
		c.mu.Unlock()
		c.submit(g)
		return job.out, true
	}
	c.mu.Unlock()
	return job.out, true
}

// detachLocked removes a group from the pending map and disarms its timer.
// Caller holds c.mu.
func (c *coalescer) detachLocked(key string, g *colorGroup) {
	if g.flushed {
		return
	}
	g.flushed = true
	if g.timer != nil {
		g.timer.Stop()
	}
	if c.groups[key] == g {
		delete(c.groups, key)
	}
}

// flushKey is the timer callback: flush the group if it is still armed.
func (c *coalescer) flushKey(key string, g *colorGroup) {
	c.mu.Lock()
	if g.flushed {
		c.mu.Unlock()
		return
	}
	c.detachLocked(key, g)
	c.mu.Unlock()
	c.submit(g)
}

// submit hands a detached group to the worker pool. The queue is sized to
// the admission limit, so a full queue here is a server bug or a shutdown
// race; jobs are failed rather than dropped silently, and the rejection
// is visible in /debug/vars: one batches_rejected tick plus one
// rejected_429 tick per failed job (each surfaces to its caller as 429).
func (c *coalescer) submit(g *colorGroup) {
	g.submitted = time.Now()
	if !c.pool.trySubmit(func() { c.runBatch(g) }) {
		c.met.batchesRejected.Add(1)
		c.met.rejected429.Add(int64(len(g.jobs)))
		for _, job := range g.jobs {
			job.out <- colorResult{err: errOverloaded}
		}
	}
}

// runBatch resolves the mapping once and answers every job in the group.
// It runs on a pool worker under a pprof label carrying the mapping key,
// so CPU profiles segment batch work by mapping spec.
func (c *coalescer) runBatch(g *colorGroup) {
	pprof.Do(context.Background(), pprof.Labels("mapping", g.spec.Key()), func(context.Context) {
		begin := time.Now()
		for _, job := range g.jobs {
			if job.tr != nil {
				job.tr.RecordSpan(obsv.StageCoalesceWait, job.enq, g.submitted.Sub(job.enq))
				job.tr.RecordSpan(obsv.StageAdmissionWait, g.submitted, begin.Sub(g.submitted))
			}
		}
		c.met.batchesFlushed.Add(1)
		c.met.batchSize.Observe(int64(len(g.jobs)))
		if len(g.jobs) >= 2 {
			c.met.coalescedJobs.Add(int64(len(g.jobs)))
		}
		acqStart := time.Now()
		m, hit, err := c.reg.AcquireInfo(g.spec)
		acqDur := time.Since(acqStart)
		stage := obsv.StageRegistryMaterialize
		if hit {
			stage = obsv.StageRegistryHit
		}
		for _, job := range g.jobs {
			job.tr.RecordSpan(stage, acqStart, acqDur)
		}
		if err != nil {
			for _, job := range g.jobs {
				job.out <- colorResult{err: err}
			}
			return
		}
		// Color every node first, reply second: spans must be fully
		// recorded before a reply lets the handler Finish the trace.
		modules := m.Modules()
		nodes := make([]tree.Node, len(g.jobs))
		for i := range g.jobs {
			nodes[i] = g.jobs[i].node
		}
		dst := make([]int, len(g.jobs))
		computeStart := time.Now()
		kernel := false
		if c.disableKernel {
			for i, n := range nodes {
				dst[i] = m.Color(n)
			}
		} else {
			kernel = coloring.ColorBatch(m, dst, nodes)
		}
		computeDur := time.Since(computeStart)
		c.met.recordBatchCompute(kernel, computeDur)
		for i := range g.jobs {
			g.jobs[i].tr.RecordSpan(obsv.StageBatchCompute, computeStart, computeDur)
			g.jobs[i].out <- colorResult{color: dst[i], modules: modules}
		}
	})
}

// shutdown flushes every armed group and stops accepting new jobs. The
// worker pool stays alive (closed separately) so flushed jobs complete.
func (c *coalescer) shutdown() {
	c.mu.Lock()
	c.closed = true
	pending := make([]*colorGroup, 0, len(c.groups))
	for key, g := range c.groups {
		c.detachLocked(key, g)
		pending = append(pending, g)
	}
	c.mu.Unlock()
	for _, g := range pending {
		c.submit(g)
	}
}
