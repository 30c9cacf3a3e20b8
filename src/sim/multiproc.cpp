#include "sim/multiproc.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace nextgov::sim {

// --- the wire codec --------------------------------------------------------

void serialize_session_result(const SessionResult& r, ByteWriter& out) {
  out.str(r.app);
  out.str(r.governor);
  out.f64(r.duration_s);
  out.f64(r.avg_power_w);
  out.f64(r.peak_power_w);
  out.f64(r.avg_temp_big_c);
  out.f64(r.peak_temp_big_c);
  out.f64(r.avg_temp_device_c);
  out.f64(r.peak_temp_device_c);
  out.f64(r.avg_fps);
  out.f64(r.energy_j);
  out.i64(r.frames_presented);
  out.i64(r.frames_dropped);
  out.f64(r.avg_ppdw);
  out.u64(r.series.size());
  for (const Sample& s : r.series) {
    out.f64(s.time_s);
    out.f64(s.fps);
    out.f64(s.target_fps);
    out.f64(s.f_big_mhz);
    out.f64(s.f_little_mhz);
    out.f64(s.f_gpu_mhz);
    out.f64(s.cap_big_mhz);
    out.f64(s.cap_little_mhz);
    out.f64(s.cap_gpu_mhz);
    out.f64(s.power_w);
    out.f64(s.temp_big_c);
    out.f64(s.temp_little_c);
    out.f64(s.temp_gpu_c);
    out.f64(s.temp_device_c);
    out.f64(s.temp_skin_c);
    out.f64(s.ppdw);
  }
}

SessionResult deserialize_session_result(ByteReader& in) {
  SessionResult r;
  r.app = in.str();
  r.governor = in.str();
  r.duration_s = in.f64();
  r.avg_power_w = in.f64();
  r.peak_power_w = in.f64();
  r.avg_temp_big_c = in.f64();
  r.peak_temp_big_c = in.f64();
  r.avg_temp_device_c = in.f64();
  r.peak_temp_device_c = in.f64();
  r.avg_fps = in.f64();
  r.energy_j = in.f64();
  r.frames_presented = in.i64();
  r.frames_dropped = in.i64();
  r.avg_ppdw = in.f64();
  // A sample is 16 f64 (128 bytes).
  const std::size_t samples = in.bounded_count(in.u64(), 128, "sample count");
  r.series.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    Sample s;
    s.time_s = in.f64();
    s.fps = in.f64();
    s.target_fps = in.f64();
    s.f_big_mhz = in.f64();
    s.f_little_mhz = in.f64();
    s.f_gpu_mhz = in.f64();
    s.cap_big_mhz = in.f64();
    s.cap_little_mhz = in.f64();
    s.cap_gpu_mhz = in.f64();
    s.power_w = in.f64();
    s.temp_big_c = in.f64();
    s.temp_little_c = in.f64();
    s.temp_gpu_c = in.f64();
    s.temp_device_c = in.f64();
    s.temp_skin_c = in.f64();
    s.ppdw = in.f64();
    r.series.push_back(s);
  }
  return r;
}

void serialize_training_result(const TrainingResult& r, ByteWriter& out) {
  r.table.serialize(out);
  out.boolean(r.converged);
  out.f64(r.sim_seconds);
  out.f64(r.wall_seconds);
  out.u64(r.decisions);
  out.f64(r.final_mean_reward);
  out.u64(static_cast<std::uint64_t>(r.states_visited));
}

TrainingResult deserialize_training_result(ByteReader& in) {
  TrainingResult r{rl::QTable::deserialize(in), false, 0.0, 0.0, 0, 0.0, 0};
  r.converged = in.boolean();
  r.sim_seconds = in.f64();
  r.wall_seconds = in.f64();
  r.decisions = in.u64();
  r.final_mean_reward = in.f64();
  r.states_visited = static_cast<std::size_t>(in.u64());
  return r;
}

// --- frames ----------------------------------------------------------------
//
// Worker -> parent stream: a sequence of frames, each
//
//   u32 payload length | u32 CRC32(payload) | payload bytes
//
// (all little-endian via ByteWriter). Payload: u8 kind, then per kind:
//   kResult  u64 plan index + the encoded result
//   kDone    u64 count of result frames the worker sent (stream trailer -
//            its absence is how a dead worker is detected)
//   kError   length-prefixed what() of the exception the shard threw
//
// The CRC guards the pipe the same way SnapshotReader guards files: a
// corrupted frame is a detected, recoverable failure, never a misdecode.

namespace {

enum FrameKind : std::uint8_t { kResult = 1, kDone = 2, kError = 3 };

/// Upper bound on one frame's payload - generous (a 150 s session with 1 s
/// sampling encodes in ~20 KiB; a trained Q-table in well under 1 MiB) but
/// finite, so a corrupted length field cannot make the parent try to
/// allocate the moon before the CRC would catch the damage.
constexpr std::uint32_t kMaxFramePayload = 256u << 20;

bool write_all(int fd, const std::uint8_t* data, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// False on EOF before `n` bytes (partial reads retried, EINTR ignored).
bool read_all(int fd, std::uint8_t* data, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t r = ::read(fd, data, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool write_frame(int fd, std::vector<std::uint8_t> payload, bool corrupt_payload) noexcept {
  ByteWriter header;
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u32(crc32(payload));
  if (corrupt_payload && !payload.empty()) payload[payload.size() / 2] ^= 0x20;
  return write_all(fd, header.data().data(), header.size()) &&
         write_all(fd, payload.data(), payload.size());
}

struct Shard {
  std::size_t first{0};
  std::size_t count{0};
};

/// Contiguous, balanced partition of [0, n) into at most `processes`
/// non-empty shards (plan order is preserved across the merge because
/// shard s covers exactly [first, first + count)).
std::vector<Shard> make_shards(std::size_t n, std::size_t processes) {
  std::vector<Shard> shards;
  const std::size_t p = std::min(processes, n);
  std::size_t first = 0;
  for (std::size_t s = 0; s < p; ++s) {
    const std::size_t count = n / p + (s < n % p ? 1 : 0);
    shards.push_back(Shard{first, count});
    first += count;
  }
  return shards;
}

struct Worker {
  pid_t pid{-1};
  int read_fd{-1};
  std::string spawn_error;  ///< pipe()/fork() failure, captured while errno is fresh
};

/// Post-waitpid verdict ("" = clean exit 0).
std::string exit_failure(int status) {
  if (WIFEXITED(status)) {
    if (WEXITSTATUS(status) == 0) return {};
    return "worker exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return std::string{"worker killed by signal "} + std::to_string(WTERMSIG(status)) + " (" +
           strsignal(WTERMSIG(status)) + ")";
  }
  return "worker ended in an unrecognized wait status";
}

/// The generic parent/worker machinery, shared by the session and training
/// flavors. `run_range(first, count)` must be a pure function of the plan
/// slice (the runner determinism contract), because it runs in the worker
/// for the happy path and re-runs in the parent to recover a failed shard.
template <typename Result>
std::vector<Result> run_sharded(
    std::size_t n, const std::function<std::vector<Result>(std::size_t, std::size_t)>& run_range,
    void (*encode)(const Result&, ByteWriter&), Result (*decode)(ByteReader&),
    const ExecOptions& options, ShardReport* report) {
  if (report != nullptr) *report = ShardReport{};
  const std::size_t processes = resolve_workers(options.processes, n);
  NEXTGOV_ASSERT(processes > 1);  // execute() runs everything else in-process
  const std::vector<Shard> shards = make_shards(n, processes);

  // Fork every worker up front; they all run concurrently while the parent
  // drains their pipes in shard order (a later worker that fills its pipe
  // simply blocks in write() until the parent gets to it - bounded memory,
  // no deadlock, since the parent always drains every pipe).
  std::vector<Worker> workers(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    int fds[2];
    if (::pipe(fds) != 0) {
      // Recovered in the merge loop below.
      workers[s] = Worker{-1, -1, std::string{"pipe failed: "} + std::strerror(errno)};
      continue;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const std::string why = std::string{"fork failed: "} + std::strerror(errno);
      ::close(fds[0]);
      ::close(fds[1]);
      workers[s] = Worker{-1, -1, why};
      continue;
    }
    if (pid == 0) {
      // --- worker ---------------------------------------------------------
      // Earlier workers' write ends are already closed in the parent, so
      // this child holds exactly one pipe write end: its own.
      ::close(fds[0]);
      const int fd = fds[1];
      int exit_code = 0;
      try {
        const std::vector<Result> results = run_range(shards[s].first, shards[s].count);
        for (std::size_t i = 0; i < results.size(); ++i) {
          ByteWriter payload;
          payload.u8(kResult);
          payload.u64(shards[s].first + i);
          encode(results[i], payload);
          const bool corrupt = s == options.faults.corrupt_shard && i == 0;
          if (!write_frame(fd, payload.data(), corrupt)) {
            exit_code = 2;  // parent gone; nothing left to report to
            break;
          }
          if (s == options.faults.kill_shard && i + 1 >= options.faults.kill_after_frames) {
            ::raise(SIGKILL);
          }
        }
        if (s == options.faults.kill_shard) ::raise(SIGKILL);  // shard smaller than the hook
        if (exit_code == 0) {
          ByteWriter done;
          done.u8(kDone);
          done.u64(results.size());
          if (!write_frame(fd, done.data(), false)) exit_code = 2;
        }
      } catch (const std::exception& e) {
        ByteWriter payload;
        payload.u8(kError);
        payload.str(e.what());
        (void)write_frame(fd, payload.data(), false);
        exit_code = 1;
      } catch (...) {
        exit_code = 1;
      }
      ::close(fd);
      ::_exit(exit_code);  // never unwind into the parent's state
    }
    // --- parent -----------------------------------------------------------
    ::close(fds[1]);  // the worker's death must read as EOF
    workers[s] = Worker{pid, fds[0], {}};
  }

  // Merge in shard (= plan) order, re-running any shard whose stream or
  // exit was unhealthy. `merged` is index-addressed so a duplicate or
  // out-of-range frame index is a detected framing violation.
  std::vector<std::optional<Result>> merged(n);
  if (report != nullptr) report->processes = shards.size();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Shard shard = shards[s];
    ShardOutcome outcome{s, shard.first, shard.count, false, {}};
    std::string failure;
    if (workers[s].pid < 0) {
      failure = workers[s].spawn_error;
    } else {
      std::size_t accepted = 0;
      bool done = false;
      while (failure.empty() && !done) {
        std::uint8_t header[8];
        if (!read_all(workers[s].read_fd, header, sizeof header)) {
          failure = "worker closed the pipe before its done frame (crashed?)";
          break;
        }
        ByteReader head{std::span<const std::uint8_t>{header, sizeof header}, "frame header"};
        const std::uint32_t length = head.u32();
        const std::uint32_t expected_crc = head.u32();
        if (length > kMaxFramePayload) {
          failure = "frame length " + std::to_string(length) + " exceeds the frame cap";
          break;
        }
        std::vector<std::uint8_t> payload(length);
        if (!read_all(workers[s].read_fd, payload.data(), payload.size())) {
          failure = "worker stream truncated mid-frame";
          break;
        }
        if (crc32(payload) != expected_crc) {
          failure = "frame CRC mismatch (corrupted in flight)";
          break;
        }
        try {
          ByteReader in{payload, "shard " + std::to_string(s) + " frame"};
          switch (in.u8()) {
            case kResult: {
              const std::uint64_t index = in.u64();
              if (index < shard.first || index >= shard.first + shard.count) {
                failure = "result frame for plan index " + std::to_string(index) +
                          " outside the worker's shard";
                break;
              }
              if (merged[static_cast<std::size_t>(index)].has_value()) {
                failure = "duplicate result frame for plan index " + std::to_string(index);
                break;
              }
              merged[static_cast<std::size_t>(index)] = decode(in);
              ++accepted;
              if (report != nullptr) {
                ++report->frames;
                report->bytes += payload.size();
              }
              break;
            }
            case kDone:
              if (in.u64() != shard.count || accepted != shard.count) {
                failure = "worker finished after " + std::to_string(accepted) + " of " +
                          std::to_string(shard.count) + " results";
              }
              done = true;
              break;
            case kError:
              failure = "shard raised: " + in.str();
              break;
            default:
              failure = "unknown frame kind";
              break;
          }
        } catch (const SerializeError& e) {
          failure = std::string{"frame decode failed: "} + e.what();
        }
      }
      ::close(workers[s].read_fd);
      int status = 0;
      while (::waitpid(workers[s].pid, &status, 0) < 0 && errno == EINTR) {
      }
      // A stream can be perfectly framed and the worker still die after its
      // done frame; treat any unclean exit as a failed shard too - the
      // re-run is bit-identical by contract, so recovery is always safe.
      if (failure.empty()) failure = exit_failure(status);
    }

    if (!failure.empty()) {
      NEXTGOV_LOG(kWarn) << "multiproc: shard " << s << " (cells [" << shard.first << ", "
                         << shard.first + shard.count << ")) failed: " << failure
                         << "; re-running in-process";
      std::vector<Result> redo = run_range(shard.first, shard.count);
      for (std::size_t i = 0; i < redo.size(); ++i) {
        merged[shard.first + i] = std::move(redo[i]);
      }
      outcome.recovered = true;
      outcome.failure = failure;
    }
    if (report != nullptr) report->shards.push_back(std::move(outcome));
  }

  std::vector<Result> results;
  results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    NEXTGOV_ASSERT(merged[i].has_value());
    results.push_back(std::move(*merged[i]));
  }
  return results;
}

/// The in-process options every shard runs under: the caller's threads
/// and batch width, no further forking.
ExecOptions shard_options(const ExecOptions& options) {
  return {.workers = options.workers, .max_batch = options.max_batch};
}

}  // namespace

namespace detail {

std::vector<SessionResult> execute_sharded(const RunPlan& plan, const ExecOptions& options,
                                           ShardReport* report) {
  const auto run_range = [&plan, &options](std::size_t first,
                                           std::size_t count) -> std::vector<SessionResult> {
    RunPlan slice;
    for (std::size_t i = first; i < first + count; ++i) {
      const SessionSpec& spec = plan.sessions()[i];
      slice.add(spec.app_factory, spec.name, spec.config);
    }
    return execute(slice, shard_options(options));
  };
  return run_sharded<SessionResult>(plan.size(), run_range, serialize_session_result,
                                    deserialize_session_result, options, report);
}

std::vector<TrainingResult> execute_sharded(const TrainingPlan& plan, const ExecOptions& options,
                                            ShardReport* report) {
  const auto run_range = [&plan, &options](std::size_t first,
                                           std::size_t count) -> std::vector<TrainingResult> {
    TrainingPlan slice;
    for (std::size_t i = first; i < first + count; ++i) {
      const TrainingSpec& spec = plan.cells()[i];
      slice.add(spec.app_factory, spec.name, spec.config, spec.options);
    }
    return execute(slice, shard_options(options));
  };
  return run_sharded<TrainingResult>(plan.size(), run_range, serialize_training_result,
                                     deserialize_training_result, options, report);
}

}  // namespace detail
}  // namespace nextgov::sim
