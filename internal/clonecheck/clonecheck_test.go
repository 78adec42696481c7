package clonecheck

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

type inner struct {
	data []int
	m    map[string]int
}

type outer struct {
	p    *inner
	s    []byte
	arr  [2]*int
	next *outer
	fn   func()
}

func TestSharedDetectsAliasing(t *testing.T) {
	n := 7
	a := &outer{
		p:   &inner{data: []int{1, 2}, m: map[string]int{"k": 1}},
		s:   []byte("abc"),
		arr: [2]*int{&n, nil},
	}
	a.next = a // cycle

	t.Run("identical object", func(t *testing.T) {
		got := Shared(a, a)
		if len(got) == 0 {
			t.Fatal("aliased object graph reported clean")
		}
	})

	t.Run("deep clone is clean", func(t *testing.T) {
		n2 := n
		b := &outer{
			p:   &inner{data: []int{1, 2}, m: map[string]int{"k": 1}},
			s:   []byte("abc"),
			arr: [2]*int{&n2, nil},
		}
		b.next = b
		if got := Shared(a, b); len(got) != 0 {
			t.Fatalf("clean clone flagged: %v", got)
		}
	})

	t.Run("one stale field", func(t *testing.T) {
		b := &outer{
			p:   a.p, // forgot to clone
			s:   []byte("abc"),
			arr: [2]*int{new(int), nil},
		}
		b.next = b
		got := Shared(a, b)
		if len(got) != 1 || !strings.Contains(got[0], "p:") {
			t.Fatalf("want exactly the stale p field, got %v", got)
		}
	})

	t.Run("shared slice backing", func(t *testing.T) {
		b := &outer{
			p:   &inner{data: a.p.data, m: map[string]int{"k": 1}},
			s:   []byte("abc"),
			arr: [2]*int{new(int), nil},
		}
		b.next = b
		got := Shared(a, b)
		if len(got) != 1 || !strings.Contains(got[0], "p.data") {
			t.Fatalf("want the shared data backing array, got %v", got)
		}
	})

	t.Run("shared map", func(t *testing.T) {
		b := &outer{
			p:   &inner{data: []int{1, 2}, m: a.p.m},
			s:   []byte("abc"),
			arr: [2]*int{new(int), nil},
		}
		b.next = b
		got := Shared(a, b)
		if len(got) != 1 || !strings.Contains(got[0], "p.m") {
			t.Fatalf("want the shared map, got %v", got)
		}
	})

	t.Run("allowed type suppresses", func(t *testing.T) {
		b := &outer{
			p:   &inner{data: a.p.data, m: map[string]int{"k": 1}},
			s:   []byte("abc"),
			arr: [2]*int{new(int), nil},
		}
		b.next = b
		if got := Shared(a, b, AllowType(0)); len(got) != 0 {
			t.Fatalf("allow-listed int slice still flagged: %v", got)
		}
	})

	t.Run("shared closures are not flagged", func(t *testing.T) {
		fn := func() {}
		x := &outer{fn: fn, arr: [2]*int{nil, nil}}
		y := &outer{fn: fn, arr: [2]*int{nil, nil}}
		if got := Shared(x, y); len(got) != 0 {
			t.Fatalf("shared func flagged: %v", got)
		}
	})
}

func TestSharedHandlesUnexportedFields(t *testing.T) {
	// All of outer/inner's fields are unexported; the tests above already
	// prove reflection reads them. This pins that nested unexported maps
	// inside interfaces work too.
	type boxed struct{ v any }
	m := map[string]int{"k": 1}
	a := boxed{v: m}
	b := boxed{v: m}
	got := Shared(a, b)
	if len(got) != 1 || !strings.Contains(got[0], "v:") {
		t.Fatalf("shared map inside interface not flagged: %v", got)
	}
	c := boxed{v: map[string]int{"k": 1}}
	if got := Shared(a, c); len(got) != 0 {
		t.Fatalf("distinct maps flagged: %v", got)
	}
}

func TestDiffComparesValues(t *testing.T) {
	build := func() *outer {
		n := 7
		o := &outer{
			p:   &inner{data: []int{1, 2}, m: map[string]int{"k": 1}},
			s:   []byte("abc"),
			arr: [2]*int{&n, nil},
		}
		o.next = o
		return o
	}
	a := build()

	t.Run("equal copy is clean", func(t *testing.T) {
		if got := Diff(a, build()); len(got) != 0 {
			t.Fatalf("equal graphs differ: %v", got)
		}
	})

	t.Run("nil equals empty, closures skipped", func(t *testing.T) {
		x, y := build(), build()
		x.p.data, y.p.data = nil, make([]int, 0, 8)
		x.fn, y.fn = func() {}, nil
		if got := Diff(x, y); len(got) != 0 {
			t.Fatalf("nil vs empty slice or a func flagged: %v", got)
		}
	})

	for _, tc := range []struct {
		name, path string
		edit       func(o *outer)
	}{
		{"slice element", "p.data[1]", func(o *outer) { o.p.data[1] = 3 }},
		{"slice length", "s", func(o *outer) { o.s = o.s[:2] }},
		{"map value", "p.m[k]", func(o *outer) { o.p.m["k"] = 2 }},
		{"map key", "p.m", func(o *outer) { o.p.m = map[string]int{"j": 1} }},
		{"pointee", "arr[0]", func(o *outer) { *o.arr[0] = 8 }},
		{"nil pointer", "arr[1]", func(o *outer) { o.arr[1] = new(int) }},
		{"sharing", "next", func(o *outer) { o.next = build() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := build()
			tc.edit(b)
			got := Diff(a, b)
			if len(got) == 0 || !strings.HasPrefix(got[0], tc.path+":") {
				t.Fatalf("want a difference at %s, got %v", tc.path, got)
			}
		})
	}

	t.Run("floats bit for bit", func(t *testing.T) {
		if got := Diff([]float64{0}, []float64{math.Copysign(0, -1)}); len(got) != 1 {
			t.Fatalf("+0 vs -0 not flagged: %v", got)
		}
	})

	t.Run("interface types", func(t *testing.T) {
		type boxed struct{ v any }
		if got := Diff(boxed{v: 1}, boxed{v: uint(1)}); len(got) != 1 {
			t.Fatalf("different dynamic types not flagged: %v", got)
		}
	})
}

// TestDiffMessages pins Diff's reports byte for byte for graphs that
// differ in a nested slice element, in a map entry and in sharing, at
// the root and below it.
func TestDiffMessages(t *testing.T) {
	build := func() *outer {
		n := 7
		o := &outer{
			p:   &inner{data: []int{1, 2}, m: map[string]int{"k": 1}},
			s:   []byte("abc"),
			arr: [2]*int{&n, nil},
		}
		o.next = o
		return o
	}
	a, b := build(), build()
	b.p.data[1] = 3
	b.p.m["k"] = 2
	b.next = build()

	type deep struct {
		rows [][]*inner
		byID map[int]*inner
	}
	mk := func() deep {
		x := &inner{data: []int{4}, m: map[string]int{}}
		return deep{rows: [][]*inner{{x}, {x, {data: []int{5, 6}}}}, byID: map[int]*inner{3: x}}
	}
	da, db := mk(), mk()
	db.rows[1][1].data[1] = 9
	db.byID[3] = &inner{data: []int{4}, m: map[string]int{"z": 1}}

	for _, tc := range []struct {
		a, b any
		want []string
	}{
		{a, b, []string{
			"p.data[1]: 2 vs 3",
			"p.m[k]: 1 vs 2",
			"next: *clonecheck.outer shared differently",
		}},
		{da, db, []string{
			"rows[1][1].data[1]: 6 vs 9",
			"byID[3]: *clonecheck.inner shared differently",
		}},
		{1, 2, []string{"(root): 1 vs 2"}},
	} {
		if got := Diff(tc.a, tc.b); strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("Diff reports\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}

// TestDiffComparesPlainMemory pins the byte comparison Diff makes of
// slices and arrays of plain values: a difference inside one is still
// reported at its element, and bytes that differ only in struct padding
// are no difference.
func TestDiffComparesPlainMemory(t *testing.T) {
	type cell struct {
		ok bool // followed by padding
		v  float64
	}
	type grid struct {
		rows [3][2]cell
		list []cell
	}
	build := func() *grid { return &grid{list: make([]cell, 4)} }
	a := build()
	for _, tc := range []struct {
		path string
		edit func(g *grid)
	}{
		{"rows[2][1].v", func(g *grid) { g.rows[2][1].v = 0.5 }},
		{"list[3].ok", func(g *grid) { g.list[3].ok = true }},
	} {
		b := build()
		tc.edit(b)
		if got := Diff(a, b); len(got) != 1 || !strings.HasPrefix(got[0], tc.path+":") {
			t.Fatalf("want one difference at %s, got %v", tc.path, got)
		}
	}
	b := build()
	*(*byte)(unsafe.Add(unsafe.Pointer(&b.rows[1][0]), 1)) = 0xff
	*(*byte)(unsafe.Add(unsafe.Pointer(&b.list[2]), 3)) = 0xff
	if got := Diff(a, b); len(got) != 0 {
		t.Fatalf("padding bytes flagged: %v", got)
	}
}
