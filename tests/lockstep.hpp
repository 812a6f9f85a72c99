// Lockstep differential oracle: a Machine's Step (native code wherever the
// host runs it) against StepBytecode (the reference interpreter).
//
// Two Machines over one Program, each with its own sink, comparison trace,
// profile, margin recorder and edge map, take the same input tuples. After
// every Step, everything either engine can change must be identical: the
// return value, both register files (registers, inputs, outputs, state),
// the sink's curr words and MCDC evaluation sets, the TORC ring, the flushed
// dispatch counts and strobe samples, the strobe countdown, the margin
// distances and the edge map. Each optional plane can be attached or left
// off, so every configuration the interpreter supports is compared.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "coverage/sink.hpp"
#include "coverage/spec.hpp"
#include "ir/dtype.hpp"
#include "support/rng.hpp"
#include "vm/cmp_trace.hpp"
#include "vm/machine.hpp"
#include "vm/profile.hpp"

namespace cftcg::lockstep {

/// Which optional planes both engines run with.
struct Planes {
  int profile = 0;  // 0 detached, 1 count-only, 2 count + strobe
  bool margins = false;
  bool sink = false;
  bool cmp_trace = false;
  bool edges = false;
  std::uint64_t step_budget = 0;
  std::uint64_t strobe_period = 7;

  [[nodiscard]] std::string Name() const {
    return "profile=" + std::to_string(profile) + " margins=" + std::to_string(margins) +
           " sink=" + std::to_string(sink) + " cmp=" + std::to_string(cmp_trace) +
           " edges=" + std::to_string(edges) + " budget=" + std::to_string(step_budget);
  }
};

/// Every combination of the planes worth a separate run: all on, all off,
/// and each plane alone or missing.
inline std::vector<Planes> PlaneMatrix() {
  std::vector<Planes> out;
  for (int mask = 0; mask < 16; ++mask) {
    for (int profile = 0; profile < 3; ++profile) {
      Planes p;
      p.profile = profile;
      p.margins = (mask & 1) != 0;
      p.sink = (mask & 2) != 0;
      p.cmp_trace = (mask & 4) != 0;
      p.edges = (mask & 8) != 0;
      out.push_back(p);
    }
  }
  return out;
}

/// One engine and everything it writes into.
class Side {
 public:
  Side(const vm::Program& program, const coverage::CoverageSpec& spec, const Planes& planes)
      : planes_(planes), machine_(program), sink_(spec) {
    edges_.assign(static_cast<std::size_t>(std::max(program.num_edges, 0)), 0);
    machine_.set_step_budget(planes.step_budget);
    if (planes.cmp_trace) machine_.set_cmp_trace(&cmp_);
    if (planes.margins) {
      margins_.Reset(spec);
      machine_.set_margins(&margins_);
    }
    if (planes.profile != 0) {
      profile_.strobe_period = planes.profile == 2 ? planes.strobe_period : 0;
      profile_.AttachTo(program);
      machine_.set_profile(&profile_);
    }
  }

  vm::Machine& machine() { return machine_; }
  [[nodiscard]] const vm::CmpTrace& cmp_trace() const { return cmp_; }

  bool Step(bool native) {
    sink_.BeginIteration();
    coverage::CoverageSink* sink = planes_.sink ? &sink_ : nullptr;
    std::uint8_t* edges = planes_.edges && !edges_.empty() ? edges_.data() : nullptr;
    return native ? machine_.Step(sink, edges) : machine_.StepBytecode(sink, edges);
  }

  /// The first difference from `other`, or "" when there is none.
  std::string Diff(Side& other) {
    machine_.FlushProfile();
    other.machine_.FlushProfile();
    if (!SameBits(machine_.dfile(), other.machine_.dfile())) return "double file";
    if (machine_.ifile() != other.machine_.ifile()) {
      for (std::size_t k = 0; k < machine_.ifile().size(); ++k) {
        if (machine_.ifile()[k] != other.machine_.ifile()[k]) {
          return "int file element " + std::to_string(k) + ": " +
                 std::to_string(machine_.ifile()[k]) + " vs " +
                 std::to_string(other.machine_.ifile()[k]);
        }
      }
    }
    if (sink_.curr().words() != other.sink_.curr().words()) return "coverage curr words";
    if (sink_.evals() != other.sink_.evals()) return "MCDC evaluation sets";
    const vm::CmpTrace::State a = cmp_.Save();
    const vm::CmpTrace::State b = other.cmp_.Save();
    if (a.ints != b.ints || a.int_idx != b.int_idx || a.int_count != b.int_count) {
      return "TORC int ring";
    }
    if (std::memcmp(a.doubles.data(), b.doubles.data(), sizeof(a.doubles)) != 0 ||
        a.double_idx != b.double_idx || a.double_count != b.double_count) {
      return "TORC double ring";
    }
    if (profile_.insn_counts != other.profile_.insn_counts) return "insn_counts";
    if (profile_.insn_samples != other.profile_.insn_samples) return "insn_samples";
    if (profile_.steps != other.profile_.steps) return "profile steps";
    if (profile_.strobe_countdown != other.profile_.strobe_countdown) return "strobe countdown";
    if (!SameBits(margins_.distances(), other.margins_.distances())) return "margin distances";
    if (edges_ != other.edges_) return "edge map";
    return "";
  }

 private:
  static bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  }

  Planes planes_;
  vm::Machine machine_;
  coverage::CoverageSink sink_;
  vm::CmpTrace cmp_;
  vm::ExecProfile profile_;
  coverage::MarginRecorder margins_;
  std::vector<std::uint8_t> edges_;
};

/// Values a model input may carry that stress the templates: signed zero,
/// NaN, infinities, values past every integer range, integer extremes, shift
/// counts of 64 and more, and zero.
inline const std::vector<double>& DoubleSentinels() {
  static const std::vector<double> kValues = {
      0.0, -0.0, 1.0, -1.0, 0.5, -2.5,
      std::numeric_limits<double>::quiet_NaN(), -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity(),
      1e30, -1e30, 9.3e18, -9.3e18, 9223372036854775808.0, -9223372036854775808.0,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::denorm_min(),
      2147483648.0, 4294967295.0, 255.5, -128.5};
  return kValues;
}
inline const std::vector<std::int64_t>& IntSentinels() {
  static const std::vector<std::int64_t> kValues = {
      0, 1, -1, 2, 63, 64, 65, 127, -128, 255, 32767, -32768, 65535,
      std::numeric_limits<std::int32_t>::max(), std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::uint32_t>::max(), 5'000'000'000,
      std::numeric_limits<std::int64_t>::max(), std::numeric_limits<std::int64_t>::min()};
  return kValues;
}

/// One random tuple for `program`: each field raw random bytes, a sentinel,
/// or a small value.
inline void FillTuple(const vm::Program& program, Rng& rng, std::vector<std::uint8_t>& buf) {
  buf.assign(program.TupleSize(), 0);
  std::size_t off = 0;
  for (const ir::DType t : program.input_types) {
    const std::size_t size = ir::DTypeSize(t);
    std::uint8_t* at = buf.data() + off;
    off += size;
    const std::uint64_t kind = rng.NextBelow(3);
    if (kind == 0) {
      rng.FillBytes(at, size);
    } else if (ir::DTypeIsFloat(t)) {
      const double v = kind == 1 ? DoubleSentinels()[rng.NextIndex(DoubleSentinels().size())]
                                 : rng.NextDouble(-100, 100);
      if (t == ir::DType::kSingle) {
        const auto f = static_cast<float>(v);
        std::memcpy(at, &f, sizeof(f));
      } else {
        std::memcpy(at, &v, sizeof(v));
      }
    } else {
      const std::int64_t v = kind == 1 ? IntSentinels()[rng.NextIndex(IntSentinels().size())]
                                       : rng.NextInRange(-10, 10);
      std::memcpy(at, &v, size);  // the low bytes: little-endian truncation
    }
  }
}

/// Runs `tuples` random tuples through both engines in lockstep (both Reset
/// every `episode` tuples) and fails at the first divergence.
inline ::testing::AssertionResult Run(const vm::Program& program,
                                      const coverage::CoverageSpec& spec, const Planes& planes,
                                      Rng& rng, int tuples, int episode = 28) {
  const auto native = std::make_unique<Side>(program, spec, planes);
  const auto reference = std::make_unique<Side>(program, spec, planes);
  std::vector<std::uint8_t> buf;
  for (int k = 0; k < tuples; ++k) {
    if (k % episode == 0) {
      native->machine().Reset();
      reference->machine().Reset();
    }
    FillTuple(program, rng, buf);
    native->machine().SetInputsFromBytes(buf.data());
    reference->machine().SetInputsFromBytes(buf.data());
    const bool a = native->Step(/*native=*/true);
    const bool b = reference->Step(/*native=*/false);
    if (a != b) {
      return ::testing::AssertionFailure()
             << planes.Name() << ": Step returned " << a << " vs " << b << " at tuple " << k;
    }
    const std::string diff = native->Diff(*reference);
    if (!diff.empty()) {
      return ::testing::AssertionFailure()
             << planes.Name() << ": " << diff << " differs after tuple " << k;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace cftcg::lockstep
