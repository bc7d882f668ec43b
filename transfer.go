package streamline

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"streamline/internal/core"
	"streamline/internal/payload"
	"streamline/internal/rng"
)

// ReliableOptions tunes SendReliable's selective-repeat protocol.
type ReliableOptions struct {
	// BlockBytes is the retransmission granularity (default 64). Smaller
	// blocks waste checksum overhead; larger ones retransmit more on each
	// residual error.
	BlockBytes int
	// MaxRounds bounds the number of channel rounds (default 10).
	MaxRounds int
}

// ReliableResult reports a SendReliable transfer.
type ReliableResult struct {
	// Received is the delivered payload; Exact reports whether it is
	// bit-exact (it is unless MaxRounds was exhausted).
	Received []byte
	Exact    bool
	// Rounds is the number of channel rounds used.
	Rounds int
	// ChannelBits counts every bit that crossed the channel, including
	// ECC, preambles, and retransmissions.
	ChannelBits int
	// Cycles is the total simulated time across rounds.
	Cycles uint64
	// GoodputKBps is payload bytes delivered per second of simulated time.
	GoodputKBps float64
	// Retransmitted counts blocks that needed more than one round.
	Retransmitted int
}

// SendReliable delivers data bit-exactly over the covert channel: each
// 8-byte packet is ECC-protected in flight, the payload is divided into
// checksummed blocks, and every round retransmits only the blocks that
// failed verification (selective-repeat ARQ — the paper notes that bursty
// eviction errors are "hard to correct without re-transmission",
// Section 4.3). Block acknowledgements ride the low-bandwidth backward
// channel the attack already maintains for synchronization.
//
// cfg is the per-round channel configuration; ECC is forced on and a
// default preamble applied as in Send.
func SendReliable(cfg Config, data []byte, opt ReliableOptions) (*ReliableResult, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("streamline: empty payload")
	}
	if opt.BlockBytes <= 0 {
		opt.BlockBytes = 64
	}
	if opt.MaxRounds <= 0 {
		opt.MaxRounds = 10
	}
	cfg.ECC = true
	if cfg.PreambleBits == 0 {
		cfg.PreambleBits = 8192
	}

	nBlocks := (len(data) + opt.BlockBytes - 1) / opt.BlockBytes

	res := &ReliableResult{Received: make([]byte, len(data))}
	pending := make([]int, nBlocks)
	for i := range pending {
		pending[i] = i
	}
	failedOnce := make(map[int]bool)
	baseSeed := cfg.Seed
	for res.Rounds = 0; res.Rounds < opt.MaxRounds && len(pending) > 0; res.Rounds++ {
		buf := roundFrame(data, pending, opt.BlockBytes)
		// A retry is a fresh run: each round's seed comes from the
		// simulator's hierarchical derivation scheme, which fully mixes the
		// round index (a small additive constant would hand near-identical
		// generator states to consecutive rounds).
		cfg.Seed = rng.Derive(baseSeed, rng.HashString("reliable-round"), uint64(res.Rounds))
		run, err := engine.Run(cfg, payload.FromBytes(buf))
		if err != nil {
			return nil, err
		}
		res.ChannelBits += run.ChannelBits
		res.Cycles += run.Cycles
		got := run.Decoded.Bytes()

		pending = reassemble(res.Received, data, got, pending, opt.BlockBytes)
		for _, id := range pending {
			failedOnce[id] = true
		}
	}
	res.Retransmitted = len(failedOnce)
	res.Exact = len(pending) == 0 && bytes.Equal(res.Received, data)
	if res.Cycles > 0 {
		m := cfg.Machine
		if m == nil {
			// An unset machine means the run simulated the default config's
			// platform, so the rate conversion uses that same clock instead
			// of a hardcoded frequency.
			m = core.DefaultConfig().Machine
		}
		secs := float64(res.Cycles) / (float64(m.FreqMHz) * 1e6)
		res.GoodputKBps = float64(len(data)) / 1024 / secs
	}
	return res, nil
}

// blockAt returns block id of data under blockBytes-sized framing (the
// final block may be short).
func blockAt(data []byte, id, blockBytes int) []byte {
	lo := id * blockBytes
	hi := lo + blockBytes
	if hi > len(data) {
		hi = len(data)
	}
	return data[lo:hi]
}

// roundFrame concatenates the pending blocks of data in order — the
// payload one ARQ round transmits.
func roundFrame(data []byte, pending []int, blockBytes int) []byte {
	buf := make([]byte, 0, len(pending)*blockBytes)
	for _, id := range pending {
		buf = append(buf, blockAt(data, id, blockBytes)...)
	}
	return buf
}

// reassemble consumes one round's decoded frame: each pending block's chunk
// of got is verified against the authoritative data's checksum, verified
// chunks are copied into dst at the block's home offset, and the ids still
// failing come back as the next round's pending list. A frame truncated
// below the pending layout (which a conforming channel never produces)
// leaves the unreachable blocks pending rather than reading out of bounds.
func reassemble(dst, data, got []byte, pending []int, blockBytes int) []int {
	var still []int
	off := 0
	for i, id := range pending {
		want := blockAt(data, id, blockBytes)
		if off+len(want) > len(got) {
			still = append(still, pending[i:]...)
			break
		}
		chunk := got[off : off+len(want)]
		off += len(want)
		if blockSum(chunk) == blockSum(want) {
			copy(dst[id*blockBytes:], chunk)
		} else {
			still = append(still, id)
		}
	}
	return still
}

// blockSum is the per-block checksum (FNV-1a 32); collisions at 2^-32 are
// negligible against the channel's error rates.
func blockSum(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}
