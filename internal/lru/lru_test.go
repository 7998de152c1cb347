package lru

import (
	"reflect"
	"strings"
	"testing"
)

// op is one step against the cache: "+k=v" adds, "?k" gets, "-p" removes
// every key with prefix p.
type op string

func (o op) apply(t *testing.T, c *Cache[string, string]) {
	t.Helper()
	s := string(o)
	switch s[0] {
	case '+':
		k, v, _ := strings.Cut(s[1:], "=")
		c.Add(k, v)
	case '?':
		c.Get(s[1:])
	case '-':
		c.RemoveIf(func(k, _ string) bool { return strings.HasPrefix(k, s[1:]) })
	default:
		t.Fatalf("bad op %q", s)
	}
}

func TestCache(t *testing.T) {
	cases := []struct {
		name    string
		cap     int
		ops     []op
		walk    []string // "k=v", oldest first
		evicted []string // keys, in eviction order
	}{
		{
			name: "insertion order without hits",
			cap:  4,
			ops:  []op{"+a=1", "+b=2", "+c=3"},
			walk: []string{"a=1", "b=2", "c=3"},
		},
		{
			name:    "get refreshes recency",
			cap:     2,
			ops:     []op{"+a=1", "+b=2", "?a", "+c=3"},
			walk:    []string{"a=1", "c=3"},
			evicted: []string{"b"},
		},
		{
			name:    "first write wins and refreshes",
			cap:     2,
			ops:     []op{"+a=1", "+b=2", "+a=9", "+c=3"},
			walk:    []string{"a=1", "c=3"},
			evicted: []string{"b"},
		},
		{
			name:    "evicts oldest first",
			cap:     2,
			ops:     []op{"+a=1", "+b=2", "+c=3", "+d=4", "+e=5"},
			walk:    []string{"d=4", "e=5"},
			evicted: []string{"a", "b", "c"},
		},
		{
			name: "remove-if is not eviction",
			cap:  4,
			ops:  []op{"+x1=1", "+y=2", "+x2=3", "-x"},
			walk: []string{"y=2"},
		},
		{
			name:    "removal frees capacity",
			cap:     2,
			ops:     []op{"+x=1", "+y=2", "-x", "+z=3"},
			walk:    []string{"y=2", "z=3"},
			evicted: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var evicted []string
			c := New(tc.cap, func(k, _ string) { evicted = append(evicted, k) })
			for _, o := range tc.ops {
				o.apply(t, c)
			}
			var walk []string
			c.Walk(func(k, v string) { walk = append(walk, k+"="+v) })
			if !reflect.DeepEqual(walk, tc.walk) {
				t.Errorf("walk %v, want %v", walk, tc.walk)
			}
			if !reflect.DeepEqual(evicted, tc.evicted) {
				t.Errorf("evicted %v, want %v", evicted, tc.evicted)
			}
			if c.Len() != len(tc.walk) {
				t.Errorf("len %d, want %d", c.Len(), len(tc.walk))
			}
		})
	}
}

// TestWalkRestoresOrder: re-adding a walk's output to an empty cache
// reproduces the recency order, which is how a restored schedule store
// keeps the evicting order of the one that was snapshotted.
func TestWalkRestoresOrder(t *testing.T) {
	src := New[string, int](3, nil)
	for i, k := range []string{"a", "b", "c"} {
		src.Add(k, i)
	}
	src.Get("a")
	dst := New[string, int](3, nil)
	src.Walk(func(k string, v int) { dst.Add(k, v) })
	var evicted []string
	dst.onEvict = func(k string, _ int) { evicted = append(evicted, k) }
	dst.Add("d", 3)
	if !reflect.DeepEqual(evicted, []string{"b"}) {
		t.Fatalf("restored cache evicted %v, want [b]", evicted)
	}
	if v, ok := dst.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %t after restore", v, ok)
	}
	removed := dst.RemoveIf(func(string, int) bool { return true })
	if !reflect.DeepEqual(removed, []int{2, 3, 0}) {
		t.Fatalf("RemoveIf returned %v, want oldest first [2 3 0]", removed)
	}
}
