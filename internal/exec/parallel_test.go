package exec

import (
	"testing"

	"repro/internal/prng"
	"repro/internal/storage"
	"repro/internal/types"
)

func TestShardsPartition(t *testing.T) {
	cases := []struct{ n, workers int }{
		{1, 1}, {1, 8}, {7, 1}, {7, 2}, {7, 3}, {7, 7}, {7, 16},
		{1000, 4}, {1001, 4}, {1024, 3},
	}
	for _, tc := range cases {
		windows := Shards(tc.n, tc.workers)
		want := tc.workers
		if want > tc.n {
			want = tc.n
		}
		if len(windows) != want {
			t.Errorf("Shards(%d, %d): %d windows, want %d", tc.n, tc.workers, len(windows), want)
		}
		next := 0
		for _, w := range windows {
			if w[0] != next {
				t.Fatalf("Shards(%d, %d): window starts at %d, want %d", tc.n, tc.workers, w[0], next)
			}
			if w[1] <= w[0] {
				t.Fatalf("Shards(%d, %d): empty window %v", tc.n, tc.workers, w)
			}
			next = w[1]
		}
		if next != tc.n {
			t.Errorf("Shards(%d, %d): windows cover [0, %d), want [0, %d)", tc.n, tc.workers, next, tc.n)
		}
	}
	if got := Shards(0, 4); got != nil {
		t.Errorf("Shards(0, 4) = %v, want nil", got)
	}
}

func shardProto() *Workspace {
	cat := storage.NewCatalog()
	tbl := storage.NewTable("t", types.NewSchema(types.Column{Name: "x", Kind: types.KindInt}))
	tbl.MustAppend(types.Row{types.NewInt(1)})
	cat.Put(tbl)
	return NewWorkspace(cat, prng.NewStream(99), 512)
}

func TestShardWorkspace(t *testing.T) {
	proto := shardProto()
	ws := ShardWorkspace(proto, 100, 160)
	if ws.Base != 100 || ws.Window != 60 {
		t.Fatalf("shard workspace Base=%d Window=%d, want 100/60", ws.Base, ws.Window)
	}
	if ws.Catalog != proto.Catalog {
		t.Error("shard workspace must share the prototype catalog")
	}
	if ws.Master != proto.Master {
		t.Error("shard workspace must share the prototype master stream")
	}
	if ws.Seeds == proto.Seeds {
		t.Error("shard workspace must have a private seed store")
	}
}
