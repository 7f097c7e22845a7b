// Request batching and backpressure. Two mechanisms compose here:
//
//   - a bounded worker pool: every admitted request becomes (part of) one
//     queued unit of work; the queue is sized to the admission limit so an
//     admitted request is never dropped — saturation is signalled at
//     admission time with 429 + Retry-After, before any state is created;
//   - a group-commit coalescer for singleton /v1/color lookups: the first
//     lookup for a mapping spec opens a group and queues it on the pool at
//     once, and later lookups for that spec join the queued group until a
//     worker takes it or it reaches MaxBatch. An idle worker therefore
//     serves a lookup at once, as a batch of one; batches form only while
//     groups wait for a busy worker, a wait they would have had anyway.
//     A batch resolves the registry handle once and colors all its nodes
//     in one pass.
//
// Graceful shutdown refuses new lookups (every open group is already
// queued) and keeps the workers alive until all in-flight HTTP handlers
// have received their results, so accepted requests complete even while
// the listener is already closed.
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
	delay time.Duration // modeled per-task access time (load testing); see access
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
				fn()
			}
		}()
	}
	return p
}

// access sleeps the modeled per-task access time. Task bodies call it
// themselves, after the coalescer has sealed its group, so a lookup that
// arrives during the modeled access opens a new group instead of riding
// along for free.
func (p *pool) access() {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
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
	tr   *obsv.Record     // the request's trace; the send on out ends the worker's writes
	enq  time.Time        // arrival time; set only when tr is traced
}

// colorGroup is one queued batch of singleton lookups against one mapping
// spec. Lookups join it under coalescer.mu while it is open (listed in
// coalescer.groups); once sealed, its jobs are fixed.
type colorGroup struct {
	spec   MappingSpec
	key    string
	jobs   []colorJob
	queued time.Time // when the group was handed to the pool
}

// coalescer merges singleton color lookups per mapping key.
type coalescer struct {
	mu       sync.Mutex
	groups   map[string]*colorGroup // open groups: queued, not yet taken by a worker
	maxBatch int
	pool     *pool
	reg      *Registry
	met      *Metrics
	closed   bool
}

func newCoalescer(maxBatch int, pool *pool, reg *Registry, met *Metrics) *coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &coalescer{
		groups:   make(map[string]*colorGroup),
		maxBatch: maxBatch,
		pool:     pool,
		reg:      reg,
		met:      met,
	}
}

// enqueue admits one singleton lookup and returns the channel its result
// will arrive on. The lookup joins its mapping key's open group if there
// is one; otherwise it opens a group and queues it on the pool at once.
// A group stays open until a worker takes it or it reaches maxBatch, so
// maxBatch 1 turns batching off. ok=false means the coalescer is shut
// down (the caller maps this to 503).
func (c *coalescer) enqueue(spec MappingSpec, n tree.Node, tr *obsv.Record) (<-chan colorResult, bool) {
	job := colorJob{node: n, out: make(chan colorResult, 1), tr: tr}
	if tr.Traced() {
		job.enq = time.Now()
	}
	key := spec.Key()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false
	}
	if g := c.groups[key]; g != nil {
		g.jobs = append(g.jobs, job)
		if len(g.jobs) >= c.maxBatch {
			delete(c.groups, key) // full: sealed, and already queued
		}
		c.mu.Unlock()
		return job.out, true
	}
	g := &colorGroup{spec: spec, key: key, jobs: []colorJob{job}}
	if c.maxBatch > 1 {
		c.groups[key] = g
	}
	c.mu.Unlock()
	c.submit(g)
	return job.out, true
}

// seal closes g to joiners; its jobs are fixed from here on.
func (c *coalescer) seal(g *colorGroup) {
	c.mu.Lock()
	if c.groups[g.key] == g {
		delete(c.groups, g.key)
	}
	c.mu.Unlock()
}

// submit queues a newly opened group on the worker pool. Each group is
// queued once, when it opens, and holds at least one admitted request, so
// the queue (sized to the admission limit) cannot overflow; a full queue
// here is a server bug or a shutdown race. The group is then sealed and
// its jobs failed rather than dropped silently, and the rejection is
// visible in /metrics: one batches_rejected tick plus one rejected_429
// tick per failed job (each surfaces to its caller as 429).
func (c *coalescer) submit(g *colorGroup) {
	g.queued = time.Now()
	if c.pool.trySubmit(func() { c.runBatch(g) }) {
		return
	}
	c.seal(g) // before failing: no joiner may slip in unanswered
	c.met.batchesRejected.Add(1)
	c.met.rejected429.Add(int64(len(g.jobs)))
	for _, job := range g.jobs {
		job.out <- colorResult{err: errOverloaded}
	}
}

// runBatch seals the group, then resolves the mapping once and answers
// every job in it. The seal comes before anything else, the modeled
// access time included. The batch runs on a pool worker under a pprof
// label carrying the mapping key, so CPU profiles segment batch work by
// mapping spec. Each job's spans are recorded before its send on out,
// and its record is not touched after it (see request).
func (c *coalescer) runBatch(g *colorGroup) {
	c.seal(g)
	c.pool.access()
	pprof.Do(context.Background(), pprof.Labels("mapping", g.key), func(context.Context) {
		begin := time.Now()
		for _, job := range g.jobs {
			if job.tr.Traced() {
				// A joiner arrives after its group was queued: it has no
				// coalesce wait, and its admission wait starts on arrival.
				wait := max(g.queued.Sub(job.enq), 0)
				job.tr.Span(obsv.StageCoalesceWait, job.enq, wait)
				start := job.enq.Add(wait)
				job.tr.Span(obsv.StageAdmissionWait, start, begin.Sub(start))
			}
		}
		acqStart := time.Now()
		m, hit, err := c.reg.AcquireInfo(g.spec)
		acqDur := time.Since(acqStart)
		stage := obsv.StageRegistryMaterialize
		if hit {
			stage = obsv.StageRegistryHit
		}
		for _, job := range g.jobs {
			job.tr.Span(stage, acqStart, acqDur)
		}
		if err != nil {
			for _, job := range g.jobs {
				job.out <- colorResult{err: err}
			}
			return
		}
		if len(g.jobs) >= 2 {
			c.met.coalescedJobs.Add(int64(len(g.jobs)))
		}
		// Color every node first, reply second: a job's spans must be
		// fully recorded before its reply lets the handler finish the
		// trace and release the record.
		nodes := make([]tree.Node, len(g.jobs))
		for i := range g.jobs {
			nodes[i] = g.jobs[i].node
		}
		dst := make([]int, len(g.jobs))
		computeStart, computeDur := c.colorBatch(m, dst, nodes)
		modules := m.Modules()
		for i := range g.jobs {
			g.jobs[i].tr.Span(obsv.StageBatchCompute, computeStart, computeDur)
			g.jobs[i].out <- colorResult{color: dst[i], modules: modules}
		}
	})
}

// colorBatch is the compute step both /v1/color batch paths share, the
// coalesced groups and the explicit nodes batches. It counts the batch
// (batches_flushed, batch_size), colors nodes into dst with the mapping's
// ColorBatch kernel (coloring.ColorBatch falls back to the per-node Color
// loop for mappings without one), and accounts which path colored it and
// how long the compute took. It returns the compute's start and duration
// for the batch_compute span.
func (c *coalescer) colorBatch(m coloring.Mapping, dst []int, nodes []tree.Node) (time.Time, time.Duration) {
	c.met.batchesFlushed.Add(1)
	c.met.batchSize.Observe(int64(len(nodes)))
	start := time.Now()
	kernel := coloring.ColorBatch(m, dst, nodes)
	d := time.Since(start)
	if kernel {
		c.met.kernelBatches.Add(1)
	} else {
		c.met.fallbackBatches.Add(1)
	}
	c.met.batchComputeNS.Observe(d.Nanoseconds())
	return start, d
}

// shutdown stops accepting new lookups. Every open group is already
// queued, and the worker pool stays alive (closed separately), so the
// lookups admitted before this call complete.
func (c *coalescer) shutdown() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}
