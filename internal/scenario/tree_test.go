package scenario

import (
	"strings"
	"testing"
)

func validTreeSpec() TreeSpec {
	return TreeSpec{
		Fleet: FleetSpec{
			Name:         "tree-test",
			TamperEvery:  8,
			TamperOffset: 3,
		},
		Depth:          2,
		Fanout:         2,
		DevicesPerLeaf: 64,
	}
}

func TestTreeSpecCompile(t *testing.T) {
	ct, err := validTreeSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ct.Leaves != 4 {
		t.Errorf("Leaves = %d, want 2^2 = 4", ct.Leaves)
	}
	if got := ct.Fleet.Config.Size; got != 4*64 {
		t.Errorf("fleet size %d, want leaves × devices-per-leaf = 256", got)
	}
	if got := ct.Fleet.Config.ShardSize; got != 64 {
		t.Errorf("shard size %d, want devices-per-leaf 64", got)
	}
	tr, err := ct.Tree(7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 4 || tr.Depth() != 2 {
		t.Errorf("built hierarchy %d leaves depth %d, want 4/2", tr.Leaves(), tr.Depth())
	}
	res, err := tr.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Devices != 256 {
		t.Errorf("run covered %d devices, want 256", res.Summary.Devices)
	}
	if len(res.Detections) != 0 {
		t.Errorf("honest run produced detections: %+v", res.Detections)
	}
}

func TestTreeSpecCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		edit func(*TreeSpec)
		want string
	}{
		{"zero depth", func(s *TreeSpec) { s.Depth = 0 }, "depth"},
		{"fanout one", func(s *TreeSpec) { s.Fanout = 1 }, "fanout"},
		{"negative leaf size", func(s *TreeSpec) { s.DevicesPerLeaf = -1 }, "devices per leaf"},
		{"explicit fleet size", func(s *TreeSpec) { s.Fleet.Size = 100 }, "derived"},
		{"explicit shard size", func(s *TreeSpec) { s.Fleet.ShardSize = 32 }, "derived"},
		{"overflowing shape", func(s *TreeSpec) { s.Depth = 40 }, "overflows"},
		{"bad fleet", func(s *TreeSpec) { s.Fleet.Name = "" }, "name"},
	}
	for _, tc := range cases {
		spec := validTreeSpec()
		tc.edit(&spec)
		_, err := spec.Compile()
		if err == nil {
			t.Errorf("%s: compiled, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestTreeSpecDefaultLeafSize(t *testing.T) {
	spec := validTreeSpec()
	spec.DevicesPerLeaf = 0
	ct, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ct.Spec.DevicesPerLeaf == 0 || ct.Fleet.Config.ShardSize != ct.Spec.DevicesPerLeaf {
		t.Errorf("default leaf size not normalized: spec %d, shard %d", ct.Spec.DevicesPerLeaf, ct.Fleet.Config.ShardSize)
	}
}
