package engine

import (
	"container/list"
	"sync"
)

// lruCache is a goroutine-safe fixed-capacity LRU map from string keys to
// values. The engine keeps two: results by canonical job hash, treated as
// immutable and handed to every hit, and resolved models by model-spec
// hash.
type lruCache[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRUCache[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached value for key, marking it most recently used.
func (c *lruCache[V]) get(key string) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return val, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// getOrPut returns the value cached under key, storing val there first
// if there is none. Concurrent callers thus agree on one value per key.
func (c *lruCache[V]) getOrPut(key string, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val
	}
	c.putLocked(key, val)
	return val
}

// put stores val under key, evicting the least recently used entries
// when the cache is full, and returns how many entries were evicted.
func (c *lruCache[V]) put(key string, val V) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return 0
	}
	return c.putLocked(key, val)
}

func (c *lruCache[V]) putLocked(key string, val V) int {
	c.items[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	evicted := 0
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
		evicted++
	}
	return evicted
}

// len returns the number of cached entries.
func (c *lruCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
