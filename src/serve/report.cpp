#include "serve/report.hpp"

#include <algorithm>
#include <map>

#include "obs/manifest.hpp"
#include "util/strings.hpp"

namespace sca::serve {
namespace {

std::uint64_t uintField(std::string_view record, std::string_view field) {
  long long value = 0;
  if (!util::jsonIntField(record, field, &value) || value < 0) return 0;
  return static_cast<std::uint64_t>(value);
}

long long intField(std::string_view record, std::string_view field) {
  long long value = 0;
  (void)util::jsonIntField(record, field, &value);
  return value;
}

double doubleField(std::string_view record, std::string_view field) {
  double value = 0.0;
  (void)util::jsonDoubleField(record, field, &value);
  return value;
}

/// Fixed-width left-padded cell for the SLO table.
std::string cell(std::string text, std::size_t width) {
  if (text.size() < width) {
    text.insert(0, width - text.size(), ' ');
  }
  return text;
}

}  // namespace

ServeReport ServeReport::fromLog(std::string_view logText) {
  ServeReport report;
  std::size_t begin = 0;
  while (begin < logText.size()) {
    std::size_t end = logText.find('\n', begin);
    if (end == std::string_view::npos) end = logText.size();
    const std::string_view line = logText.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;

    std::string component;
    std::string event;
    if (!util::jsonStringField(line, "component", &component) ||
        component != "serve" ||
        !util::jsonStringField(line, "event", &event) ||
        event != "request") {
      continue;
    }
    const std::string fields = obs::extractJsonObject(line, "fields");
    if (fields.empty()) continue;

    RequestRecord record;
    if (!util::jsonStringField(fields, "id", &record.id) ||
        !util::jsonStringField(fields, "op", &record.op) ||
        !util::jsonStringField(fields, "status", &record.status)) {
      continue;  // torn mid-record
    }
    (void)util::jsonStringField(line, "span", &record.span);
    record.chain = intField(fields, "chain");
    record.shard = intField(fields, "shard");
    record.simSeconds = doubleField(fields, "sim_s");
    record.queueWaitSeconds = doubleField(fields, "queue_wait_s");
    record.backoffSeconds = doubleField(fields, "backoff_s");
    record.attempts = intField(fields, "attempts");
    record.retries = intField(fields, "retries");
    record.deadlineStops = intField(fields, "deadline_stops");
    record.failovers = intField(fields, "failovers");
    record.hedges = intField(fields, "hedges");
    record.hedgeWins = intField(fields, "hedge_wins");
    record.replayedTurns = intField(fields, "replayed_turns");
    record.queueDepth = uintField(fields, "queue_depth");
    record.batch = uintField(fields, "batch");
    record.admitNs = uintField(fields, "admit_ns");
    record.startNs = uintField(fields, "start_ns");
    record.endNs = uintField(fields, "end_ns");
    report.requests_.push_back(std::move(record));
  }
  return report;
}

std::vector<const RequestRecord*> ServeReport::slowest(std::size_t n) const {
  std::vector<const RequestRecord*> out;
  out.reserve(requests_.size());
  for (const RequestRecord& record : requests_) out.push_back(&record);
  std::sort(out.begin(), out.end(),
            [](const RequestRecord* a, const RequestRecord* b) {
              if (a->simSeconds != b->simSeconds) {
                return a->simSeconds > b->simSeconds;
              }
              if (a->queueWaitSeconds != b->queueWaitSeconds) {
                return a->queueWaitSeconds > b->queueWaitSeconds;
              }
              return a->id < b->id;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<OpSlo> ServeReport::sloTable() const {
  std::map<std::string, OpSlo> byOp;
  for (const RequestRecord& record : requests_) {
    auto it = byOp.find(record.op);
    if (it == byOp.end()) {
      it = byOp.emplace(record.op, OpSlo()).first;
      it->second.op = record.op;
    }
    OpSlo& row = it->second;
    ++row.requests;
    if (record.ok()) ++row.ok;
    row.latency.observe(record.simSeconds);
    row.queueWait.observe(record.queueWaitSeconds);
  }
  std::vector<OpSlo> out;
  out.reserve(byOp.size());
  for (auto& [op, row] : byOp) out.push_back(std::move(row));
  return out;
}

std::string ServeReport::summaryText(std::size_t slowestN) const {
  std::string out = "serve-report: " + std::to_string(requests_.size()) +
                    " request(s) reconstructed\n";
  if (requests_.empty()) return out;

  out += "\nslowest requests:\n";
  for (const RequestRecord* record : slowest(slowestN)) {
    out += "  " + record->id + "  op=" + record->op +
           " chain=" + std::to_string(record->chain) +
           " status=" + record->status +
           " shard=" + std::to_string(record->shard) +
           " sim_s=" + util::formatDouble(record->simSeconds, 3) +
           " queue_wait_s=" +
           util::formatDouble(record->queueWaitSeconds, 6) +
           " backoff_s=" + util::formatDouble(record->backoffSeconds, 3) +
           " retries=" + std::to_string(record->retries) +
           " failovers=" + std::to_string(record->failovers) +
           " replayed=" + std::to_string(record->replayedTurns);
    if (!record->span.empty() &&
        record->span != "0000000000000000") {
      out += " span=" + record->span;
    }
    out += '\n';
  }

  out += "\nslo table:\n";
  out += "  op         requests     ok  avail%    p50_s    p90_s    p99_s"
         "   p999_s    max_s\n";
  for (const OpSlo& row : sloTable()) {
    std::string line = "  " + row.op;
    if (line.size() < 12) line.append(12 - line.size(), ' ');
    line += cell(std::to_string(row.requests), 8);
    line += cell(std::to_string(row.ok), 7);
    line += cell(util::formatDouble(row.availabilityPct(), 2), 8);
    line += cell(util::formatDouble(row.latency.quantile(0.50), 3), 9);
    line += cell(util::formatDouble(row.latency.quantile(0.90), 3), 9);
    line += cell(util::formatDouble(row.latency.quantile(0.99), 3), 9);
    line += cell(util::formatDouble(row.latency.quantile(0.999), 3), 9);
    line += cell(util::formatDouble(row.latency.maxValue(), 3), 9);
    out += line + '\n';
  }
  return out;
}

}  // namespace sca::serve
