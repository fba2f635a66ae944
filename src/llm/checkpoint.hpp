// Crash-safe checkpointing for buildTransformedDataset.
//
// A full Table II build is 4 settings x 8 challenges x 50 transformation
// steps per year — against a real API, hours of work that a kill should
// not throw away. The unit of checkpointing is one (setting, challenge)
// chain: chains are independently seeded conversations, so a chain loaded
// from disk is byte-identical to the chain recomputed, and a resumed build
// equals an uninterrupted one bit for bit.
//
// Format: one JSONL file per chain in the checkpoint directory,
//
//   chain_y<year>_s<settingIndex>_c<challenge>.jsonl
//     {"magic":"sca-chain-v1","year":2017,"setting":"+N","challenge":0,
//      "steps":50,"origin_hash":"accf61...","fault_rate":"0.050000"}
//     {"step":1,"source":"#include <bits\/stdc++.h>\n..."}
//     ...
//
// The header pins everything the chain's bytes depend on: corpus year,
// setting, challenge, step count, a hash of the original code (guards
// against a corpus change making the checkpoint stale) and the fault rate
// (degraded outputs depend on it). Any mismatch, short file, or torn line
// invalidates the checkpoint — the chain is simply recomputed. Files are
// written with util::atomicWriteFile, so a kill leaves no torn file, only
// a missing one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace sca::llm {

struct ChainKey {
  int year = 0;
  std::size_t settingIndex = 0;  // index into allSettings() order
  std::string settingLabel;      // "+N", "+C", "~N", "~C"
  int challenge = 0;
  std::size_t steps = 0;
  std::uint64_t originHash = 0;  // util::hash64 of the chain's original
  double faultRate = 0.0;
};

/// The checkpoint file path for a chain (inside `dir`).
[[nodiscard]] std::string chainCheckpointPath(const std::string& dir,
                                              const ChainKey& key);

/// Atomically persists a completed chain. Failure is non-fatal to the
/// build — the caller logs and moves on.
[[nodiscard]] util::Status writeChainCheckpoint(
    const std::string& dir, const ChainKey& key,
    const std::vector<std::string>& outputs);

/// Loads a chain if a valid, complete checkpoint matching `key` exists;
/// kDataLoss otherwise (missing file, stale header, wrong step count,
/// torn record).
[[nodiscard]] util::Result<std::vector<std::string>> loadChainCheckpoint(
    const std::string& dir, const ChainKey& key);

/// The chain coordinates a checkpoint FILENAME claims
/// (chain_y<year>_s<settingIndex>_c<challenge>.jsonl).
struct CheckpointFilenameKey {
  long long year = 0;
  long long settingIndex = 0;
  long long challenge = 0;
};

/// Parses the coordinates out of a checkpoint path or bare filename.
/// False when the name does not follow the scheme.
[[nodiscard]] bool parseChainCheckpointFilename(std::string_view name,
                                                CheckpointFilenameKey* out);

/// What `sca_cli checkpoints` reports about one chain file, without
/// needing the original corpus: the header fields as stored, the entry
/// count actually on disk, and a verdict string ("ok", "bad magic",
/// "torn record at line N", "incomplete: 37/50 steps", ...). headerOk is
/// false when the header itself cannot be trusted (the numeric fields are
/// then whatever parsed before the failure).
///
/// `stale` flags a file whose header disagrees with its own filename
/// (year, challenge, or setting label vs the filename's setting index).
/// Such a file is dead weight: loadChainCheckpoint derives the path from
/// the key it validates against, so a mismatched header means no key will
/// ever both address and accept this file. `sca_cli checkpoints
/// --purge-stale` deletes them.
struct CheckpointInfo {
  std::string path;
  bool headerOk = false;
  bool stale = false;      // header contradicts the filename (headerOk only)
  std::string magic;
  std::string setting;
  std::string originHash;  // 16 hex chars, as stored
  std::string faultRate;   // formatted string, as stored
  long long year = 0;
  long long challenge = 0;
  long long steps = 0;     // declared in the header
  std::size_t entries = 0; // step records actually present and well-formed
  bool complete = false;   // entries == steps and every record parsed
  std::string verdict;
};

/// Inspects one checkpoint file. Never throws; I/O and parse failures are
/// reported through headerOk/verdict.
[[nodiscard]] CheckpointInfo inspectChainCheckpoint(const std::string& path);

}  // namespace sca::llm
