// Tests for the Verilog generator (structure, determinism, golden-vector
// consistency with the C++ model).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "rtlgen/nacu_verilog.hpp"
#include "rtlgen/verilog.hpp"

namespace nacu::rtlgen {
namespace {

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

TEST(VerilogWriter, ModuleSkeleton) {
  ModuleBuilder m{"widget"};
  m.input("clk").input("data", 8).output("q", 4, true).localparam("K", 7);
  m.body("assign foo = 1;");
  const std::string text = m.str();
  EXPECT_NE(text.find("module widget ("), std::string::npos);
  EXPECT_NE(text.find("input clk,"), std::string::npos);
  EXPECT_NE(text.find("input [7:0] data,"), std::string::npos);
  EXPECT_NE(text.find("output reg [3:0] q"), std::string::npos);
  EXPECT_NE(text.find("localparam K = 7;"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
}

TEST(VerilogWriter, BinLiteralTwosComplement) {
  EXPECT_EQ(bin_literal(5, 4), "4'b0101");
  EXPECT_EQ(bin_literal(-1, 4), "4'b1111");
  EXPECT_EQ(bin_literal(-8, 4), "4'b1000");
  EXPECT_EQ(bin_literal(0, 3), "3'b000");
  EXPECT_THROW(bin_literal(1, 0), std::invalid_argument);
}

TEST(VerilogWriter, RangeFormatting) {
  EXPECT_EQ(range(1), "");
  EXPECT_EQ(range(16), "[15:0]");
}

TEST(NacuVerilog, ContainsAllArchitecturalBlocks) {
  const VerilogBundle bundle =
      emit_nacu_verilog(core::config_for_bits(16), 4);
  for (const char* module : {"nacu_sigmoid_lut", "nacu_bias_units",
                             "nacu_top"}) {
    EXPECT_NE(bundle.design.find(std::string{"module "} + module),
              std::string::npos) << module;
  }
  // The Fig. 2 structure is present: LUT instance, bias units instance,
  // divider delay line, decrementor band check.
  EXPECT_NE(bundle.design.find("u_lut"), std::string::npos);
  EXPECT_NE(bundle.design.find("u_bias"), std::string::npos);
  EXPECT_NE(bundle.design.find("DIV_STAGES = 4"), std::string::npos);
  EXPECT_NE(bundle.design.find("in_band"), std::string::npos);
}

TEST(NacuVerilog, LutRomHasOneCasePerEntry) {
  const core::NacuConfig config = core::config_for_bits(16);
  const VerilogBundle bundle = emit_nacu_verilog(config, 2);
  // 53 entries + 1 default arm, each assigning m1.
  EXPECT_EQ(count_occurrences(bundle.design, "m1 = 16'b"),
            config.lut_entries + 1);
}

TEST(NacuVerilog, LutValuesMatchTheCppTable) {
  const core::NacuConfig config = core::config_for_bits(16);
  const core::Nacu unit{config};
  const VerilogBundle bundle = emit_nacu_verilog(config, 2);
  // Spot-check segment 0's quantised coefficients appear verbatim.
  EXPECT_NE(bundle.design.find(bin_literal(unit.lut().slope_raw(0), 16)),
            std::string::npos);
  EXPECT_NE(bundle.design.find(bin_literal(unit.lut().bias_raw(0), 16)),
            std::string::npos);
}

TEST(NacuVerilog, TestbenchCarriesGoldenVectors) {
  const core::NacuConfig config = core::config_for_bits(16);
  const VerilogBundle bundle = emit_nacu_verilog(config, 8, 42);
  EXPECT_EQ(bundle.vector_count, 8u * 3u);  // σ + tanh + exp per stimulus
  EXPECT_EQ(count_occurrences(bundle.testbench, "check(2'd"),
            bundle.vector_count);
  EXPECT_NE(bundle.testbench.find("module nacu_tb"), std::string::npos);
  EXPECT_NE(bundle.testbench.find("$finish"), std::string::npos);
}

TEST(NacuVerilog, DeterministicEmission) {
  const core::NacuConfig config = core::config_for_bits(16);
  const VerilogBundle a = emit_nacu_verilog(config, 8, 7);
  const VerilogBundle b = emit_nacu_verilog(config, 8, 7);
  EXPECT_EQ(a.design, b.design);
  EXPECT_EQ(a.testbench, b.testbench);
  const VerilogBundle c = emit_nacu_verilog(config, 8, 8);
  EXPECT_NE(c.testbench, a.testbench);  // seed changes stimulus
  EXPECT_EQ(c.design, a.design);        // but never the design
}

TEST(NacuVerilog, WidthsFollowTheConfig) {
  const VerilogBundle wide = emit_nacu_verilog(core::config_for_bits(20), 2);
  EXPECT_NE(wide.design.find("localparam N = 20;"), std::string::npos);
  EXPECT_NE(wide.design.find("localparam FB = 15;"), std::string::npos);
}

TEST(NacuVerilog, RejectsApproximateReciprocalConfig) {
  core::NacuConfig config = core::config_for_bits(16);
  config.approximate_reciprocal = true;
  EXPECT_THROW(emit_nacu_verilog(config), std::invalid_argument);
}

TEST(NacuVerilog, CommittedRtlIsTheDefaultEmission) {
  // rtl/ holds what `generate_rtl` writes with its defaults (16 bits, 32
  // vectors); a datapath or generator change must regenerate it.
  const VerilogBundle bundle =
      emit_nacu_verilog(core::config_for_bits(16), 32);
  const auto committed = [](const char* name) {
    std::ifstream in{std::filesystem::path{NACU_SOURCE_DIR} / "rtl" / name};
    std::stringstream contents;
    contents << in.rdbuf();
    return contents.str();
  };
  EXPECT_TRUE(committed("nacu.v") == bundle.design)
      << "rtl/nacu.v is stale: regenerate with ./build/examples/generate_rtl";
  EXPECT_TRUE(committed("nacu_tb.v") == bundle.testbench)
      << "rtl/nacu_tb.v is stale: regenerate with "
         "./build/examples/generate_rtl";
}

TEST(NacuVerilog, WriteBundleCreatesFiles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "nacu_rtlgen_test";
  fs::remove_all(dir);
  const VerilogBundle bundle =
      emit_nacu_verilog(core::config_for_bits(16), 2);
  write_bundle(bundle, dir.string());
  EXPECT_TRUE(fs::exists(dir / "nacu.v"));
  EXPECT_TRUE(fs::exists(dir / "nacu_tb.v"));
  std::ifstream in{dir / "nacu.v"};
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), bundle.design);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace nacu::rtlgen
