package harness

import (
	"encoding/json"
	"io"
)

// ServeRow is one timed operation: throughput, time and allocation per
// call, from the fastest of a few fixed-length passes.
type ServeRow struct {
	Name        string  `json:"name"`
	ReqPerSec   float64 `json:"req_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// AppendVariant is one measured shard-count configuration of
// BENCH_append.json.
type AppendVariant struct {
	// Name identifies the configuration: "monolithic" (one shard, the
	// pre-sharding behavior) or "sharded" (the default shard count).
	Name   string `json:"name"`
	Shards int    `json:"shards"`
	// Append is the maintenance latency of a RowsPerBatch-row append
	// through Cube.Append (the parallel per-shard fold/rebuild path).
	RowsPerBatch int      `json:"rows_per_batch"`
	Append       ServeRow `json:"append"`
	// AvgShardsTouched averages AppendStats.ShardsTouched over the
	// measured batches.
	AvgShardsTouched float64 `json:"avg_shards_touched"`
	// Cache retention across one single-row append: WarmedETags entries
	// were warmed and revalidated; ShardsTouchedOneRow of Shards shards
	// were touched; Retained304 kept answering 304.
	ShardsTouchedOneRow int     `json:"shards_touched_one_row"`
	WarmedETags         int     `json:"warmed_etags"`
	Retained304         int     `json:"retained_304"`
	RetentionRatio      float64 `json:"retention_ratio"`
}

// AppendReport is the payload of BENCH_append.json: append-maintenance
// latency and warm-cache retention across appends, sharded vs the
// monolithic (S=1) baseline. The headline claim it documents: an
// append touching a fraction of the shards leaves the untouched
// shards' cached responses and ETags valid, where the monolithic cube
// invalidated everything on every append.
type AppendReport struct {
	Rows       int             `json:"rows"`
	Seed       int64           `json:"seed"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	CacheBytes int64           `json:"cache_bytes"`
	Variants   []AppendVariant `json:"variants"`

	// MonolithicRetention and ShardedRetention lift the two retention
	// ratios to the top level for easy comparison; the monolithic one
	// is structurally 0.
	MonolithicRetention float64 `json:"monolithic_retention"`
	ShardedRetention    float64 `json:"sharded_retention"`
	// AppendLatencyRatio is monolithic append ns/op ÷ sharded ns/op
	// (>1 means the sharded parallel maintenance is faster).
	AppendLatencyRatio float64 `json:"append_latency_ratio"`
}

// Variant returns the named variant, or nil.
func (r *AppendReport) Variant(name string) *AppendVariant {
	for i := range r.Variants {
		if r.Variants[i].Name == name {
			return &r.Variants[i]
		}
	}
	return nil
}

// WriteAppendJSON writes the report as indented JSON.
func WriteAppendJSON(w io.Writer, rep *AppendReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
