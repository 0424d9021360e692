package engine

import "testing"

func TestLRUCacheEviction(t *testing.T) {
	t.Parallel()

	c := newLRUCache[*Result](2)
	a, b, d := &Result{Hash: "a"}, &Result{Hash: "b"}, &Result{Hash: "d"}
	c.put("a", a)
	c.put("b", b)
	if got, ok := c.get("a"); !ok || got != a {
		t.Fatalf("get(a) = %v, %v; want the stored result", got, ok)
	}
	// "a" is now most recently used, so inserting a third entry evicts "b".
	c.put("d", d)
	if _, ok := c.get("b"); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.get("d"); !ok {
		t.Error("new entry missing")
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}
}

func TestLRUCacheOverwrite(t *testing.T) {
	t.Parallel()

	c := newLRUCache[*Result](2)
	c.put("a", &Result{Hash: "a1"})
	updated := &Result{Hash: "a2"}
	c.put("a", updated)
	if got, ok := c.get("a"); !ok || got != updated {
		t.Errorf("get after overwrite = %v, %v; want the updated result", got, ok)
	}
	if got := c.len(); got != 1 {
		t.Errorf("len = %d, want 1", got)
	}
}
