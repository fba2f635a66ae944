#include "llm/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <map>

#include "llm/pipelines.hpp"
#include "obs/log.hpp"
#include "util/codec.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"

namespace sca::llm {
namespace {

constexpr std::string_view kMagic = "sca-chain-v1";
constexpr std::string_view kPackMagic = "sca-chainpack-v1";

/// Consumes `prefix` then a run of digits into `out`; advances `name`.
bool eatNumber(std::string_view& name, std::string_view prefix,
               long long* out) {
  if (name.substr(0, prefix.size()) != prefix) return false;
  name.remove_prefix(prefix.size());
  std::size_t digits = 0;
  long long value = 0;
  while (digits < name.size() && name[digits] >= '0' &&
         name[digits] <= '9') {
    value = value * 10 + (name[digits] - '0');
    ++digits;
  }
  if (digits == 0) return false;
  name.remove_prefix(digits);
  *out = value;
  return true;
}

util::Status stale(const std::string& why) {
  obs::logEvent(obs::LogLevel::kInfo, "checkpoint", "stale",
                [&](util::JsonObjectBuilder& fields) {
                  fields.add("reason", why);
                });
  return util::Status(util::StatusCode::kDataLoss, why);
}

}  // namespace

std::string chainCheckpointPath(const std::string& dir, const ChainKey& key) {
  return dir + "/chain_y" + std::to_string(key.year) + "_s" +
         std::to_string(key.settingIndex) + "_c" +
         std::to_string(key.challenge) + ".jsonl";
}

util::Status writeChainCheckpoint(const std::string& dir, const ChainKey& key,
                                  const std::vector<std::string>& outputs) {
  std::string content;
  content.reserve(256 + outputs.size() * 64);
  content += util::JsonObjectBuilder()
                 .add("magic", kMagic)
                 .addInt("year", key.year)
                 .add("setting", key.settingLabel)
                 .addInt("challenge", key.challenge)
                 .addUint("steps", key.steps)
                 .add("origin_hash", util::toHex64(key.originHash))
                 .add("fault_rate", util::formatDouble(key.faultRate, 6))
                 .str();
  content += '\n';
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    content += util::JsonObjectBuilder()
                   .addUint("step", i + 1)
                   .add("source", outputs[i])
                   .str();
    content += '\n';
  }
  const std::string path = chainCheckpointPath(dir, key);
  const util::Status status = util::atomicWriteFile(path, content);
  if (status.isOk()) {
    obs::logEvent(obs::LogLevel::kDebug, "checkpoint", "written",
                  [&](util::JsonObjectBuilder& fields) {
                    fields.add("path", path);
                    fields.addUint("steps", outputs.size());
                  });
  }
  return status;
}

namespace {

/// Validates one chain's JSONL bytes against `key` — shared by the loose
/// file path and the pack fallback, so where the bytes were stored can
/// never weaken the validation. `path` only labels error messages.
util::Result<std::vector<std::string>> parseChainContent(
    const std::string& content, const ChainKey& key, const std::string& path) {
  const std::vector<std::string> lines = util::split(content, '\n');
  if (lines.empty()) return stale("empty checkpoint " + path);

  // Header validation: every mismatch means "recompute", never "trust".
  const std::string& header = lines[0];
  std::string magic;
  std::string setting;
  std::string originHash;
  std::string faultRate;
  long long year = 0;
  long long challenge = 0;
  long long steps = 0;
  if (!util::jsonStringField(header, "magic", &magic) || magic != kMagic) {
    return stale("bad magic in " + path);
  }
  if (!util::jsonIntField(header, "year", &year) || year != key.year) {
    return stale("year mismatch in " + path);
  }
  if (!util::jsonStringField(header, "setting", &setting) ||
      setting != key.settingLabel) {
    return stale("setting mismatch in " + path);
  }
  if (!util::jsonIntField(header, "challenge", &challenge) ||
      challenge != key.challenge) {
    return stale("challenge mismatch in " + path);
  }
  if (!util::jsonIntField(header, "steps", &steps) ||
      steps != static_cast<long long>(key.steps)) {
    return stale("step count mismatch in " + path);
  }
  if (!util::jsonStringField(header, "origin_hash", &originHash) ||
      originHash != util::toHex64(key.originHash)) {
    return stale("origin hash mismatch in " + path);
  }
  if (!util::jsonStringField(header, "fault_rate", &faultRate) ||
      faultRate != util::formatDouble(key.faultRate, 6)) {
    return stale("fault rate mismatch in " + path);
  }

  std::vector<std::string> outputs;
  outputs.reserve(key.steps);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;  // trailing newline
    long long step = 0;
    std::string source;
    if (!util::jsonIntField(lines[i], "step", &step) ||
        step != static_cast<long long>(outputs.size()) + 1 ||
        !util::jsonStringField(lines[i], "source", &source)) {
      return stale("torn record at line " + std::to_string(i + 1) + " of " +
                   path);
    }
    outputs.push_back(std::move(source));
  }
  if (outputs.size() != key.steps) {
    return stale("incomplete chain in " + path);
  }
  obs::logEvent(obs::LogLevel::kDebug, "checkpoint", "resumed",
                [&](util::JsonObjectBuilder& fields) {
                  fields.add("path", path);
                  fields.addUint("steps", outputs.size());
                });
  return outputs;
}

}  // namespace

util::Result<std::vector<std::string>> loadChainCheckpoint(
    const std::string& dir, const ChainKey& key) {
  const std::string path = chainCheckpointPath(dir, key);
  util::Result<std::string> file = util::readFile(path);
  if (file.ok()) return parseChainContent(file.value(), key, path);

  // No loose file: the chain may have been compacted into the pack.
  const std::string name = std::filesystem::path(path).filename().string();
  util::Result<std::string> packed =
      readChainPackEntry(chainPackPath(dir), name);
  if (!packed.ok()) return file.status();  // original miss, not pack noise
  return parseChainContent(packed.value(), key, path + " (pack)");
}

bool parseChainCheckpointFilename(std::string_view name,
                                  CheckpointFilenameKey* out) {
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string_view::npos) name.remove_prefix(slash + 1);
  CheckpointFilenameKey key;
  if (!eatNumber(name, "chain_y", &key.year)) return false;
  if (!eatNumber(name, "_s", &key.settingIndex)) return false;
  if (!eatNumber(name, "_c", &key.challenge)) return false;
  if (name != ".jsonl") return false;
  *out = key;
  return true;
}

CheckpointInfo inspectChainCheckpoint(const std::string& path) {
  CheckpointInfo info;
  info.path = path;

  util::Result<std::string> file = util::readFile(path);
  if (!file.ok()) {
    info.verdict = "unreadable: " + file.status().toString();
    return info;
  }
  const std::vector<std::string> lines = util::split(file.value(), '\n');
  if (lines.empty() || lines[0].empty()) {
    info.verdict = "empty file";
    return info;
  }

  // Header: unlike loadChainCheckpoint there is no expected key to match
  // against, so the check is structural — all fields present, magic right.
  const std::string& header = lines[0];
  if (!util::jsonStringField(header, "magic", &info.magic)) {
    info.verdict = "no header";
    return info;
  }
  if (info.magic != kMagic) {
    info.verdict = "bad magic \"" + info.magic + "\"";
    return info;
  }
  if (!util::jsonIntField(header, "year", &info.year) ||
      !util::jsonStringField(header, "setting", &info.setting) ||
      !util::jsonIntField(header, "challenge", &info.challenge) ||
      !util::jsonIntField(header, "steps", &info.steps) ||
      !util::jsonStringField(header, "origin_hash", &info.originHash) ||
      !util::jsonStringField(header, "fault_rate", &info.faultRate)) {
    info.verdict = "incomplete header";
    return info;
  }
  info.headerOk = true;

  // Filename cross-check: the path is derived from the key the loader
  // validates against, so a header that contradicts its own filename can
  // never be loaded — the file is stale regardless of its contents.
  std::string staleReason;
  CheckpointFilenameKey named;
  if (parseChainCheckpointFilename(path, &named)) {
    const std::vector<Setting>& settings = allSettings();
    std::string expectedLabel = "?";
    if (named.settingIndex >= 0 &&
        named.settingIndex < static_cast<long long>(settings.size())) {
      expectedLabel = settingLabel(
          settings[static_cast<std::size_t>(named.settingIndex)]);
    }
    if (info.year != named.year) {
      staleReason = "header year " + std::to_string(info.year) +
                    " vs filename y" + std::to_string(named.year);
    } else if (info.challenge != named.challenge) {
      staleReason = "header challenge " + std::to_string(info.challenge) +
                    " vs filename c" + std::to_string(named.challenge);
    } else if (info.setting != expectedLabel) {
      staleReason = "header setting \"" + info.setting +
                    "\" vs filename s" + std::to_string(named.settingIndex) +
                    " (\"" + expectedLabel + "\")";
    }
    info.stale = !staleReason.empty();
  }

  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;  // trailing newline
    long long step = 0;
    std::string source;
    if (!util::jsonIntField(lines[i], "step", &step) ||
        step != static_cast<long long>(info.entries) + 1 ||
        !util::jsonStringField(lines[i], "source", &source)) {
      info.verdict = "torn record at line " + std::to_string(i + 1);
      return info;
    }
    ++info.entries;
  }
  if (static_cast<long long>(info.entries) != info.steps) {
    info.verdict = "incomplete: " + std::to_string(info.entries) + "/" +
                   std::to_string(info.steps) + " steps";
    return info;
  }
  info.complete = true;
  info.verdict = info.stale ? "stale: " + staleReason : "ok";
  return info;
}

// --------------------------------------------------------- chain pack ----

std::string chainPackPath(const std::string& dir) {
  return dir + "/chains.pack";
}

util::Result<std::vector<ChainPackEntry>> readChainPackIndex(
    const std::string& packPath) {
  const util::Result<std::string> file = util::readFile(packPath);
  if (!file.ok()) return file.status();
  const std::string& bytes = file.value();

  util::ByteReader r(bytes);
  if (r.str() != kPackMagic || !r.ok()) {
    return stale("bad pack magic in " + packPath);
  }
  const std::uint64_t count = r.u64();
  if (!r.ok()) return stale("truncated pack index in " + packPath);
  std::vector<ChainPackEntry> entries;
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ChainPackEntry entry;
    entry.name = r.str();
    entry.offset = r.u64();
    entry.length = r.u64();
    if (!r.ok()) return stale("truncated pack index in " + packPath);
    if (entry.offset > bytes.size() ||
        entry.length > bytes.size() - entry.offset) {
      return stale("pack entry out of bounds in " + packPath);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

util::Result<std::string> readChainPackEntry(const std::string& packPath,
                                             const std::string& name) {
  const util::Result<std::vector<ChainPackEntry>> index =
      readChainPackIndex(packPath);
  if (!index.ok()) return index.status();
  for (const ChainPackEntry& entry : index.value()) {
    if (entry.name != name) continue;
    // Re-read rather than keep the whole pack resident across the index
    // call — the loader touches one entry at a time.
    const util::Result<std::string> file = util::readFile(packPath);
    if (!file.ok()) return file.status();
    if (entry.offset + entry.length > file.value().size()) {
      return stale("pack entry out of bounds in " + packPath);
    }
    return file.value().substr(entry.offset, entry.length);
  }
  return util::Status(util::StatusCode::kDataLoss,
                      "no pack entry " + name + " in " + packPath);
}

util::Result<CompactionResult> compactCheckpoints(const std::string& dir) {
  namespace fs = std::filesystem;
  CompactionResult result;

  // Existing pack entries seed the merge; loose files override by name
  // (a re-run that rewrote a chain after the last compaction must win).
  std::map<std::string, std::string> chains;
  const std::string packPath = chainPackPath(dir);
  if (const auto index = readChainPackIndex(packPath); index.ok()) {
    const util::Result<std::string> file = util::readFile(packPath);
    if (file.ok()) {
      for (const ChainPackEntry& entry : index.value()) {
        chains[entry.name] =
            file.value().substr(entry.offset, entry.length);
      }
    }
  }

  std::vector<std::string> looseFiles;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    CheckpointFilenameKey ignored;
    if (!parseChainCheckpointFilename(name, &ignored)) continue;
    util::Result<std::string> content = util::readFile(entry.path().string());
    if (!content.ok()) return content.status();
    chains[name] = std::move(content.value());
    looseFiles.push_back(entry.path().string());
  }
  if (ec) {
    return util::Status(util::StatusCode::kDataLoss,
                        "cannot scan " + dir + ": " + ec.message());
  }
  if (chains.empty()) return result;  // nothing to pack, nothing touched

  // Index size is computable up front (str = u32 + bytes, u64 = 8), which
  // makes every offset absolute without a second pass over the payload.
  std::size_t offset = 4 + kPackMagic.size() + 8;
  for (const auto& [name, content] : chains) {
    offset += 4 + name.size() + 8 + 8;
  }
  util::ByteWriter w;
  w.str(kPackMagic);
  w.u64(chains.size());
  for (const auto& [name, content] : chains) {
    w.str(name);
    w.u64(offset);
    w.u64(content.size());
    offset += content.size();
  }
  std::string packed = w.take();
  for (const auto& [name, content] : chains) packed += content;

  const util::Status written = util::atomicWriteFile(packPath, packed);
  if (!written.isOk()) return written;
  result.packedChains = chains.size();

  // The rename has landed; the loose copies are now redundant. A failed
  // delete costs one extra (byte-identical) copy, never correctness.
  for (const std::string& path : looseFiles) {
    std::error_code removeEc;
    if (fs::remove(path, removeEc) && !removeEc) ++result.removedFiles;
  }
  obs::logEvent(obs::LogLevel::kInfo, "checkpoint", "compacted",
                [&](util::JsonObjectBuilder& fields) {
                  fields.add("pack", packPath);
                  fields.addUint("chains", result.packedChains);
                  fields.addUint("removed", result.removedFiles);
                });
  return result;
}

}  // namespace sca::llm
