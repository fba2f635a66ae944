#include "llm/checkpoint.hpp"

#include "llm/pipelines.hpp"
#include "obs/log.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"

namespace sca::llm {
namespace {

constexpr std::string_view kMagic = "sca-chain-v1";

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

util::Result<std::vector<std::string>> loadChainCheckpoint(
    const std::string& dir, const ChainKey& key) {
  const std::string path = chainCheckpointPath(dir, key);
  const util::Result<std::string> file = util::readFile(path);
  if (!file.ok()) return file.status();
  const std::vector<std::string> lines = util::split(file.value(), '\n');
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

}  // namespace sca::llm
