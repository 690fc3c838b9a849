package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// CheckpointVersion is the current checkpoint format version. It is
// exported for external checkpoint writers (the cluster coordinator
// persists its merge watermark in the same format, so engine and
// cluster runs resume interchangeably).
const CheckpointVersion = 1

// ShardMark records one shard's completed-round watermark.
type ShardMark struct {
	Shard int `json:"shard"`
	Round int `json:"round"`
}

// Checkpoint is the engine's persisted resume state: everything needed to
// continue an interrupted run without re-synthesizing the merged prefix.
// SinkOffset is the durable byte length of the sink when the checkpoint
// was taken; resuming truncates the sink back to it, dropping whatever
// partial round followed.
type Checkpoint struct {
	Version     int         `json:"version"`
	Fingerprint string      `json:"fingerprint"`
	Workers     int         `json:"workers"`
	Round       int         `json:"round"` // last fully merged round
	Samples     uint64      `json:"samples"`
	SinkOffset  int64       `json:"sink_offset"`
	Shards      []ShardMark `json:"shards"`
}

// Validate rejects structurally broken checkpoints.
func (c *Checkpoint) Validate() error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("engine: unsupported checkpoint version %d", c.Version)
	}
	if c.Round < 0 || c.SinkOffset < 0 || c.Workers < 1 {
		return fmt.Errorf("engine: corrupt checkpoint (round=%d offset=%d workers=%d)",
			c.Round, c.SinkOffset, c.Workers)
	}
	for _, s := range c.Shards {
		if s.Round < c.Round {
			return fmt.Errorf("engine: shard %d watermark %d behind merged round %d",
				s.Shard, s.Round, c.Round)
		}
	}
	return nil
}

// Save atomically and durably writes the checkpoint: a temp file in the
// same directory, fsynced before it is renamed over path, then an fsync
// of the directory. A crash or power loss at any point leaves either the
// previous checkpoint or the new one — never an empty or torn file.
func (c *Checkpoint) Save(path string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename inside it survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// ErrNoCheckpoint reports that a resume was requested but no checkpoint
// file exists (the run either never checkpointed or already completed).
var ErrNoCheckpoint = errors.New("engine: no checkpoint")

// LoadCheckpoint reads and validates a checkpoint file. A missing file
// maps to ErrNoCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w at %s", ErrNoCheckpoint, path)
		}
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("engine: corrupt checkpoint %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
