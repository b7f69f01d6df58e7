package db

// Normalized-plan cache. Read-only queries are normalized
// (sql.NormalizeQuery parameterizes literals out), fingerprinted, and
// their optimized plans cached: the second execution of the same query
// shape skips parsing-independent planning work — build, pushdown,
// join ordering — and runs the cached tree with the fresh literal
// values bound as executor arguments. Correctness does not depend on
// the cache: a cached plan differs from a fresh one only in the
// planning work saved, never in the rows produced, and a generation
// counter bumped by every commit that changes live state (DDL, DML,
// transactions, snapshot loads) invalidates every entry wholesale, so
// a plan built against a dropped or mutated schema can never be
// replayed. Plans with repair-key or pick-tuples are never cached
// (sql.NormalizeQuery refuses them).

import (
	"container/list"
	"sync"
	"sync/atomic"

	"maybms/internal/plan"
	"maybms/internal/sql"
	"maybms/internal/types"
)

// planCacheCap bounds the number of cached plans; beyond it the least
// recently used entry is evicted.
const planCacheCap = 256

type planCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // fingerprint -> *cacheEntry element
	lru     *list.List               // front = most recently used
	cap     int

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	fp   string
	node plan.Node
	gen  int64
}

func newPlanCache() *planCache {
	return &planCache{
		entries: map[string]*list.Element{},
		lru:     list.New(),
		cap:     planCacheCap,
	}
}

// lookup returns the cached plan for fp if one exists at the current
// generation, counting the hit or miss.
func (c *planCache) lookup(fp string, gen int64) (plan.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if ok {
		e := el.Value.(*cacheEntry)
		if e.gen == gen {
			c.lru.MoveToFront(el)
			c.hits.Add(1)
			return e.node, true
		}
		// Stale generation: a write happened since this plan was
		// built. Drop it; the caller replans against current state.
		c.lru.Remove(el)
		delete(c.entries, fp)
	}
	c.misses.Add(1)
	return nil, false
}

// insert caches a freshly optimized plan, evicting the least recently
// used entry when full.
func (c *planCache) insert(fp string, n plan.Node, gen int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		el.Value.(*cacheEntry).node = n
		el.Value.(*cacheEntry).gen = gen
		c.lru.MoveToFront(el)
		return
	}
	c.entries[fp] = c.lru.PushFront(&cacheEntry{fp: fp, node: n, gen: gen})
	for c.lru.Len() > c.cap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.entries, el.Value.(*cacheEntry).fp)
	}
}

// stats reports cumulative hits, misses, and the live entry count.
func (c *planCache) stats() (hits, misses, entries int64) {
	c.mu.Lock()
	n := int64(c.lru.Len())
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), n
}

// PlanCacheStats reports the plan cache's cumulative hit and miss
// counts and its current entry count, for the metrics endpoint and the
// shell's \plancache command.
func (d *Database) PlanCacheStats() (hits, misses, entries int64) {
	return d.plans.stats()
}

// bumpPlanGen advances the plan-cache generation, invalidating every
// cached plan. Called (under the exclusive lock) by every commit that
// publishes effects and by snapshot loads — any event that can change
// schemas, table contents, or the world-set store.
func (d *Database) bumpPlanGen() { d.planGen.Add(1) }

// planFor compiles a query against the snapshot through the
// normalized-plan cache and the cost-aware optimizer; the snapshot's
// generation says which cached plans are valid for it.
//
// The returned args must be installed as the statement executor's Args
// before the plan is opened: a cached (or freshly normalized) plan
// reads its literals from there. fp is the normalized fingerprint (""
// when the query does not normalize) and hit reports whether the plan
// came from the cache.
func (s *Snapshot) planFor(q sql.Query) (n plan.Node, args []types.Value, fp string, hit bool, err error) {
	d := s.db
	norm, args, fp, ok := sql.NormalizeQuery(q)
	if ok {
		if cached, found := d.plans.lookup(fp, s.gen); found {
			return cached, args, fp, true, nil
		}
	}
	build := q
	if ok {
		build = norm
	}
	n, err = plan.Build(build, s)
	if err != nil && ok {
		// The parameterized form failed to plan (a construct that
		// needs the literal at plan time slipped past normalization's
		// freeze list). Fall back to the original query, uncached.
		ok, args, fp = false, nil, ""
		n, err = plan.Build(q, s)
	}
	if err != nil {
		return nil, nil, "", false, err
	}
	n = plan.Optimize(n, plan.OptOptions{Est: s})
	if ok && plan.Cacheable(n) {
		d.plans.insert(fp, n, s.gen)
	}
	return n, args, fp, false, nil
}
