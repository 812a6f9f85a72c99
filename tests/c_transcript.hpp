// Differential oracle for the printed C: the translation unit
// codegen::EmitC prints for a vm::Program, compiled by the host C compiler
// and run on a tuple stream, against a Machine on the same stream.
//
// The C is built with -std=c99 -O1 -ffp-contract=off
// -fsanitize=undefined -fno-sanitize-recover=all and without -fwrapv, so
// any signed overflow or bad shift in the printed program aborts the run:
// the printer must avoid them by construction. Per step, a transcript lists
//   o <value>            every output (%.17g for floats, else an integer);
//   c <slot>             every coverage slot hit, ascending;
//   m <decision> <eval>  every distinct MCDC evaluation, ascending, packed
//                        as coverage::PackEval packs it (hex);
//   end
// so outputs, coverage slots and MCDC tuples are compared step by step.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/cemit.hpp"
#include "coverage/sink.hpp"
#include "coverage/spec.hpp"
#include "ir/value.hpp"
#include "support/strings.hpp"
#include "vm/machine.hpp"
#include "vm/program.hpp"

namespace cftcg::c_transcript {

inline bool HaveCc() { return std::system("cc --version > /dev/null 2>&1") == 0; }

/// How a tuple reaches the program: decoded (the printed <model>_decode
/// and Machine::SetInputsFromBytes, where a non-finite float reads as 0),
/// or raw, every float field's bits as they are, so NaN and infinities
/// arrive too.
enum class Inputs { kDecoded, kRaw };

/// A main() for the printed translation unit of `program` (functions
/// named after `model`): reads tuples from stdin and prints the transcript.
inline std::string HarnessMain(const vm::Program& program, const std::string& model,
                               Inputs inputs) {
  const std::size_t tuple = program.TupleSize();
  std::string out =
      "\n/* === runtime-equivalence harness === */\n"
      "#include <stdio.h>\n#include <stdlib.h>\n"
      "static int g_slots[65536]; static int g_nslots = 0;\n"
      "typedef struct { int d; unsigned long long e; } Eval;\n"
      "static Eval g_evals[65536]; static int g_nevals = 0;\n"
      "void CoverageStatistics(int id) { if (g_nslots < 65536) g_slots[g_nslots++] = id; }\n"
      "void McdcRecord(int d, uint32_t v, uint32_t m, int o) {\n"
      "  if (g_nevals == 65536) return;\n"
      "  g_evals[g_nevals].d = d;\n"
      "  g_evals[g_nevals++].e = (v & 0xFFFFFFull) | ((unsigned long long)(m & 0xFFFFFF) << 24) |\n"
      "                          ((unsigned long long)((uint32_t)o & 0xFF) << 48);\n"
      "}\n"
      "static int cmp_int(const void* a, const void* b) {\n"
      "  const int x = *(const int*)a, y = *(const int*)b;\n"
      "  return (x > y) - (x < y);\n"
      "}\n"
      "static int cmp_eval(const void* a, const void* b) {\n"
      "  const Eval* x = (const Eval*)a; const Eval* y = (const Eval*)b;\n"
      "  if (x->d != y->d) return (x->d > y->d) - (x->d < y->d);\n"
      "  return (x->e > y->e) - (x->e < y->e);\n"
      "}\n"
      "int main(void) {\n";
  out += StrFormat("  static unsigned char buf[%zu];\n", tuple + 1);
  out += "  " + model + "_init();\n";
  out += StrFormat("  while (fread(buf, 1, %zu, stdin) == %zu) {\n", tuple, tuple);
  std::vector<std::string> decode_args = {"buf"};
  std::vector<std::string> args;
  std::size_t offset = 0;
  for (std::size_t k = 0; k < program.input_types.size(); ++k) {
    const ir::DType t = program.input_types[k];
    const std::string name = StrFormat("h_in%zu", k);
    out += StrFormat("    %s %s = 0;\n", std::string(ir::DTypeCName(t)).c_str(), name.c_str());
    if (inputs == Inputs::kRaw) {
      out += StrFormat("    memcpy(&%s, buf + %zu, %zu);\n", name.c_str(), offset,
                       ir::DTypeSize(t));
      if (t == ir::DType::kBool) out += "    " + name + " &= 1;\n";
    }
    offset += ir::DTypeSize(t);
    decode_args.push_back("&" + name);
    args.push_back(name);
  }
  if (inputs == Inputs::kDecoded) {
    out += "    " + model + "_decode(" + JoinStrings(decode_args, ", ") + ");\n";
  }
  for (std::size_t k = 0; k < program.output_types.size(); ++k) {
    out += StrFormat("    %s h_out%zu = 0;\n",
                     std::string(ir::DTypeCName(program.output_types[k])).c_str(), k);
    args.push_back(StrFormat("&h_out%zu", k));
  }
  out += "    g_nslots = 0; g_nevals = 0;\n";
  out += "    " + model + "_step(" + JoinStrings(args, ", ") + ");\n";
  for (std::size_t k = 0; k < program.output_types.size(); ++k) {
    out += ir::DTypeIsFloat(program.output_types[k])
               ? StrFormat("    printf(\"o %%.17g\\n\", (double)h_out%zu);\n", k)
               : StrFormat("    printf(\"o %%lld\\n\", (long long)h_out%zu);\n", k);
  }
  out +=
      "    qsort(g_slots, (size_t)g_nslots, sizeof(int), cmp_int);\n"
      "    for (int k = 0; k < g_nslots; ++k) {\n"
      "      if (k == 0 || g_slots[k] != g_slots[k - 1]) printf(\"c %d\\n\", g_slots[k]);\n"
      "    }\n"
      "    qsort(g_evals, (size_t)g_nevals, sizeof(Eval), cmp_eval);\n"
      "    for (int k = 0; k < g_nevals; ++k) {\n"
      "      if (k == 0 || cmp_eval(&g_evals[k], &g_evals[k - 1]) != 0) {\n"
      "        printf(\"m %d %llx\\n\", g_evals[k].d, g_evals[k].e);\n"
      "      }\n"
      "    }\n"
      "    printf(\"end\\n\");\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  return out;
}

/// The coverage and MCDC lines of one step and its "end", from a sink whose
/// campaign was reset before the step.
inline std::string SinkLines(const coverage::CoverageSink& sink) {
  std::string out;
  for (int slot = 0; slot < sink.spec().FuzzBranchCount(); ++slot) {
    if (sink.curr().Test(static_cast<std::size_t>(slot))) out += StrFormat("c %d\n", slot);
  }
  for (std::size_t d = 0; d < sink.evals().size(); ++d) {
    std::vector<std::uint64_t> evals(sink.evals()[d].begin(), sink.evals()[d].end());
    std::sort(evals.begin(), evals.end());
    for (const std::uint64_t e : evals) {
      out += StrFormat("m %zu %llx\n", d, static_cast<unsigned long long>(e));
    }
  }
  return out + "end\n";
}

/// The transcript of a Machine running `program` on `stream`: Machine::Step,
/// or the bytecode interpreter when `bytecode` is set.
inline std::string VmTranscript(const vm::Program& program, const coverage::CoverageSpec& spec,
                                const std::vector<std::uint8_t>& stream,
                                Inputs inputs = Inputs::kDecoded, bool bytecode = false) {
  vm::Machine machine(program);
  coverage::CoverageSink sink(spec);
  const std::size_t tuple = program.TupleSize();
  std::string out;
  for (std::size_t off = 0; off + tuple <= stream.size(); off += tuple) {
    // A fresh campaign per step: evals() then holds this step's evaluations.
    sink.ResetCampaign();
    if (inputs == Inputs::kDecoded) {
      machine.SetInputsFromBytes(stream.data() + off);
    } else {
      std::vector<ir::Value> values;
      std::size_t at = off;
      for (const ir::DType t : program.input_types) {
        if (t == ir::DType::kDouble) {
          double v;
          std::memcpy(&v, stream.data() + at, sizeof(v));
          values.push_back(ir::Value::Real(t, v));
        } else if (t == ir::DType::kSingle) {
          float v;
          std::memcpy(&v, stream.data() + at, sizeof(v));
          values.push_back(ir::Value::Real(t, v));
        } else {
          values.push_back(ir::Value::FromBytes(t, stream.data() + at));
        }
        at += ir::DTypeSize(t);
      }
      machine.SetInputs(values);
    }
    if (bytecode) {
      machine.StepBytecode(&sink);
    } else {
      machine.Step(&sink);
    }
    for (int o = 0; o < machine.num_outputs(); ++o) {
      const ir::Value v = machine.GetOutput(o);
      out += ir::DTypeIsFloat(v.type())
                 ? StrFormat("o %.17g\n", v.AsDouble())
                 : StrFormat("o %lld\n", static_cast<long long>(v.AsInt64()));
    }
    out += SinkLines(sink);
  }
  return out;
}

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Prints `program` as C, compiles it with the harness under UBSan, runs it
/// on `stream` and returns its transcript (empty, with a test failure, when
/// it cannot). `tag` names the scratch files and must be unique per test.
inline std::string CompiledTranscript(const vm::Program& program, const std::string& model,
                                      const std::string& tag,
                                      const std::vector<std::uint8_t>& stream,
                                      Inputs inputs = Inputs::kDecoded) {
  auto code = codegen::EmitC(program, model);
  EXPECT_TRUE(code.ok()) << code.message();
  if (!code.ok()) return "";
  const std::string base = ::testing::TempDir() + "/cftcg_rt_" + tag;
  {
    std::ofstream out(base + ".c");
    out << code.value() << HarnessMain(program, model, inputs);
  }
  const int cc = std::system(("cc -std=c99 -O1 -ffp-contract=off -fsanitize=undefined "
                              "-fno-sanitize-recover=all -o " + base + " " + base + ".c -lm 2> " +
                              base + ".log")
                                 .c_str());
  EXPECT_EQ(cc, 0) << ReadFile(base + ".log");
  if (cc != 0) return "";
  {
    std::ofstream out(base + ".in", std::ios::binary);
    out.write(reinterpret_cast<const char*>(stream.data()),
              static_cast<std::streamsize>(stream.size()));
  }
  const int run = std::system(
      (base + " < " + base + ".in > " + base + ".out 2> " + base + ".err").c_str());
  EXPECT_EQ(run, 0) << "the compiled C failed: " << ReadFile(base + ".err");
  return ReadFile(base + ".out");
}

/// "" when the transcripts are equal, else the first differing line (with
/// its number and the step it falls in) of each.
inline std::string FirstDifference(const std::string& got, const std::string& want) {
  if (got == want) return "";
  std::istringstream g(got);
  std::istringstream w(want);
  std::string gl;
  std::string wl;
  int step = 0;
  for (int line = 1;; ++line) {
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    if (!more_g && !more_w) return "equal lines, different bytes";
    if (!more_g || !more_w || gl != wl) {
      return StrFormat("line %d (step %d): compiled C '%s', VM '%s'", line, step,
                       more_g ? gl.c_str() : "<end>", more_w ? wl.c_str() : "<end>");
    }
    if (gl == "end") ++step;
  }
}

}  // namespace cftcg::c_transcript
