// Behavior-preservation pin for the scenario-API redesign. The golden
// strings below were captured from the pre-registry implementation (closed
// TaskKind enum + typed axis vectors) on the exact sweeps the engine tests
// use; the generic parameter-map API (set/axis/axisStrings/ParamAxis +
// SweepRunnerOptions), with the axes declared in the old fixed nesting
// order, must reproduce the task labels/ordering and the
// writeSweepCsv/writeSweepJson bytes unchanged.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "engine/sweep_runner.h"
#include "tiny_models.h"

namespace fdtdmm {
namespace {

// --- Golden task labels (pre-redesign expand(), index order). ---

const char* const kGoldenTlineLabels[] = {
    "tline/fdtd1d pattern=010 bt=5e-10 zc=100 td=4e-10 load=rc r=500 c=1e-12",
    "tline/fdtd1d pattern=010 bt=5e-10 zc=100 td=4e-10 load=rc r=50 c=2e-12",
    "tline/fdtd1d pattern=010 bt=5e-10 zc=100 td=4e-10 load=receiver",
    "tline/fdtd1d pattern=010 bt=5e-10 zc=131 td=4e-10 load=rc r=500 c=1e-12",
    "tline/fdtd1d pattern=010 bt=5e-10 zc=131 td=4e-10 load=rc r=50 c=2e-12",
    "tline/fdtd1d pattern=010 bt=5e-10 zc=131 td=4e-10 load=receiver",
    "tline/fdtd1d pattern=0110 bt=5e-10 zc=100 td=4e-10 load=rc r=500 c=1e-12",
    "tline/fdtd1d pattern=0110 bt=5e-10 zc=100 td=4e-10 load=rc r=50 c=2e-12",
    "tline/fdtd1d pattern=0110 bt=5e-10 zc=100 td=4e-10 load=receiver",
    "tline/fdtd1d pattern=0110 bt=5e-10 zc=131 td=4e-10 load=rc r=500 c=1e-12",
    "tline/fdtd1d pattern=0110 bt=5e-10 zc=131 td=4e-10 load=rc r=50 c=2e-12",
    "tline/fdtd1d pattern=0110 bt=5e-10 zc=131 td=4e-10 load=receiver",
};

const char* const kGoldenPcbLabels[] = {
    "pcb pattern=01 bt=1e-09 incident=off",
    "pcb pattern=01 bt=1e-09 incident=on",
    "pcb pattern=01 bt=2e-09 incident=off",
    "pcb pattern=01 bt=2e-09 incident=on",
    "pcb pattern=010 bt=1e-09 incident=off",
    "pcb pattern=010 bt=1e-09 incident=on",
    "pcb pattern=010 bt=2e-09 incident=off",
    "pcb pattern=010 bt=2e-09 incident=on",
};

// --- Golden export bytes (pre-redesign SweepRunner on the tiny-model
// sweep below, workers=2; leading newline is literal-formatting only). ---

const char* const kGoldenCsv = R"gold(
index,label,ok,error,eye_height,eye_level_high,eye_level_low,eye_open,v_far_max,v_far_min,overshoot,settling_time,far_end_delay,max_newton_iterations
0,"tline/fdtd1d pattern=010 bt=5e-10 zc=100 td=4e-10 load=rc r=500 c=1e-12",1,"",-0.000794575858,-0.0516810159,-0.0586652688,0,0,-0.0771972638,0.0516810159,1.68165e-09,-1,2
1,"tline/fdtd1d pattern=010 bt=5e-10 zc=100 td=4e-10 load=rc r=50 c=2e-12",1,"",-0.00593973582,-0.0207470011,-0.0154254276,0,0,-0.0207914877,0.0207470011,1.998e-09,-1,2
2,"tline/fdtd1d pattern=010 bt=5e-10 zc=100 td=4e-10 load=receiver",1,"",-0.0115743095,-0.145883904,-0.151871437,0,0,-0.1926777,0.145883904,1.998e-09,-1,3
3,"tline/fdtd1d pattern=010 bt=5e-10 zc=131 td=4e-10 load=rc r=500 c=1e-12",1,"",-0.0043007817,-0.0603872892,-0.0628578004,0,0,-0.0847801008,0.0603872892,1.74825e-09,-1,2
4,"tline/fdtd1d pattern=010 bt=5e-10 zc=131 td=4e-10 load=rc r=50 c=2e-12",1,"",-0.00604270072,-0.0212842603,-0.0156169556,0,0,-0.0213461297,0.0212842603,1.998e-09,-1,2
5,"tline/fdtd1d pattern=010 bt=5e-10 zc=131 td=4e-10 load=receiver",1,"",-0.0188628925,-0.164376084,-0.166571956,0,0,-0.20514351,0.164376084,1.998e-09,-1,3
6,"tline/fdtd1d pattern=0110 bt=5e-10 zc=100 td=4e-10 load=rc r=500 c=1e-12",1,"",0.00913735685,-0.0551731424,-0.0744399648,1,0,-0.0771972638,0.0551731424,1.68165e-09,-1,2
7,"tline/fdtd1d pattern=0110 bt=5e-10 zc=100 td=4e-10 load=rc r=50 c=2e-12",1,"",-0.00421901672,-0.0180862143,-0.0165743151,0,0,-0.0207914877,0.0180862143,1.998e-09,-1,2
8,"tline/fdtd1d pattern=0110 bt=5e-10 zc=100 td=4e-10 load=receiver",1,"",0.00717977015,-0.148877671,-0.170036059,1,0,-0.1926777,0.148877671,1.998e-09,-1,3
9,"tline/fdtd1d pattern=0110 bt=5e-10 zc=131 td=4e-10 load=rc r=500 c=1e-12",1,"",0.0123467911,-0.0616225448,-0.0815990196,1,0,-0.0847801008,0.0616225448,1.74825e-09,-1,2
10,"tline/fdtd1d pattern=0110 bt=5e-10 zc=131 td=4e-10 load=rc r=50 c=2e-12",1,"",-0.00497414319,-0.0184506079,-0.01636524,0,0,-0.0213461297,0.0184506079,1.998e-09,-1,2
11,"tline/fdtd1d pattern=0110 bt=5e-10 zc=131 td=4e-10 load=receiver",1,"",-0.00340277293,-0.16547402,-0.181433144,0,0,-0.20514351,0.16547402,1.998e-09,-1,3
)gold";

const char* const kGoldenJson = R"gold(
{
  "workers": 2,
  "runs": [
    {"index": 0, "label": "tline/fdtd1d pattern=010 bt=5e-10 zc=100 td=4e-10 load=rc r=500 c=1e-12", "ok": true, "error": "", "metrics": {"eye_height": -0.000794575858, "eye_level_high": -0.0516810159, "eye_level_low": -0.0586652688, "eye_open": false, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.0771972638, "overshoot": 0.0516810159, "settling_time": 1.68165e-09, "far_end_delay": -1, "max_newton_iterations": 2}},
    {"index": 1, "label": "tline/fdtd1d pattern=010 bt=5e-10 zc=100 td=4e-10 load=rc r=50 c=2e-12", "ok": true, "error": "", "metrics": {"eye_height": -0.00593973582, "eye_level_high": -0.0207470011, "eye_level_low": -0.0154254276, "eye_open": false, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.0207914877, "overshoot": 0.0207470011, "settling_time": 1.998e-09, "far_end_delay": -1, "max_newton_iterations": 2}},
    {"index": 2, "label": "tline/fdtd1d pattern=010 bt=5e-10 zc=100 td=4e-10 load=receiver", "ok": true, "error": "", "metrics": {"eye_height": -0.0115743095, "eye_level_high": -0.145883904, "eye_level_low": -0.151871437, "eye_open": false, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.1926777, "overshoot": 0.145883904, "settling_time": 1.998e-09, "far_end_delay": -1, "max_newton_iterations": 3}},
    {"index": 3, "label": "tline/fdtd1d pattern=010 bt=5e-10 zc=131 td=4e-10 load=rc r=500 c=1e-12", "ok": true, "error": "", "metrics": {"eye_height": -0.0043007817, "eye_level_high": -0.0603872892, "eye_level_low": -0.0628578004, "eye_open": false, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.0847801008, "overshoot": 0.0603872892, "settling_time": 1.74825e-09, "far_end_delay": -1, "max_newton_iterations": 2}},
    {"index": 4, "label": "tline/fdtd1d pattern=010 bt=5e-10 zc=131 td=4e-10 load=rc r=50 c=2e-12", "ok": true, "error": "", "metrics": {"eye_height": -0.00604270072, "eye_level_high": -0.0212842603, "eye_level_low": -0.0156169556, "eye_open": false, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.0213461297, "overshoot": 0.0212842603, "settling_time": 1.998e-09, "far_end_delay": -1, "max_newton_iterations": 2}},
    {"index": 5, "label": "tline/fdtd1d pattern=010 bt=5e-10 zc=131 td=4e-10 load=receiver", "ok": true, "error": "", "metrics": {"eye_height": -0.0188628925, "eye_level_high": -0.164376084, "eye_level_low": -0.166571956, "eye_open": false, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.20514351, "overshoot": 0.164376084, "settling_time": 1.998e-09, "far_end_delay": -1, "max_newton_iterations": 3}},
    {"index": 6, "label": "tline/fdtd1d pattern=0110 bt=5e-10 zc=100 td=4e-10 load=rc r=500 c=1e-12", "ok": true, "error": "", "metrics": {"eye_height": 0.00913735685, "eye_level_high": -0.0551731424, "eye_level_low": -0.0744399648, "eye_open": true, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.0771972638, "overshoot": 0.0551731424, "settling_time": 1.68165e-09, "far_end_delay": -1, "max_newton_iterations": 2}},
    {"index": 7, "label": "tline/fdtd1d pattern=0110 bt=5e-10 zc=100 td=4e-10 load=rc r=50 c=2e-12", "ok": true, "error": "", "metrics": {"eye_height": -0.00421901672, "eye_level_high": -0.0180862143, "eye_level_low": -0.0165743151, "eye_open": false, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.0207914877, "overshoot": 0.0180862143, "settling_time": 1.998e-09, "far_end_delay": -1, "max_newton_iterations": 2}},
    {"index": 8, "label": "tline/fdtd1d pattern=0110 bt=5e-10 zc=100 td=4e-10 load=receiver", "ok": true, "error": "", "metrics": {"eye_height": 0.00717977015, "eye_level_high": -0.148877671, "eye_level_low": -0.170036059, "eye_open": true, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.1926777, "overshoot": 0.148877671, "settling_time": 1.998e-09, "far_end_delay": -1, "max_newton_iterations": 3}},
    {"index": 9, "label": "tline/fdtd1d pattern=0110 bt=5e-10 zc=131 td=4e-10 load=rc r=500 c=1e-12", "ok": true, "error": "", "metrics": {"eye_height": 0.0123467911, "eye_level_high": -0.0616225448, "eye_level_low": -0.0815990196, "eye_open": true, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.0847801008, "overshoot": 0.0616225448, "settling_time": 1.74825e-09, "far_end_delay": -1, "max_newton_iterations": 2}},
    {"index": 10, "label": "tline/fdtd1d pattern=0110 bt=5e-10 zc=131 td=4e-10 load=rc r=50 c=2e-12", "ok": true, "error": "", "metrics": {"eye_height": -0.00497414319, "eye_level_high": -0.0184506079, "eye_level_low": -0.01636524, "eye_open": false, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.0213461297, "overshoot": 0.0184506079, "settling_time": 1.998e-09, "far_end_delay": -1, "max_newton_iterations": 2}},
    {"index": 11, "label": "tline/fdtd1d pattern=0110 bt=5e-10 zc=131 td=4e-10 load=receiver", "ok": true, "error": "", "metrics": {"eye_height": -0.00340277293, "eye_level_high": -0.16547402, "eye_level_low": -0.181433144, "eye_open": false, "eye_valid": true, "v_far_max": 0, "v_far_min": -0.20514351, "overshoot": 0.16547402, "settling_time": 1.998e-09, "far_end_delay": -1, "max_newton_iterations": 3}}
  ]
}
)gold";

/// The tiny-model t-line sweep the goldens were captured on (old fixed
/// nesting order: pattern, bit_time, zc, load, rc_load).
SweepSpec goldenTlineSpec() {
  SweepSpec spec;
  spec.scenario = "tline";
  spec.set("engine", std::string("fdtd1d"));
  spec.set("t_stop", 2e-9);
  spec.set("strip_len", 24.0);
  spec.driver = "tinydrv";
  spec.receiver = "tinyrcv";
  spec.axisStrings("pattern", {"010", "0110"});
  spec.axis("bit_time", {0.5e-9});
  spec.axis("zc", {100.0, 131.0});
  spec.axisStrings("load", {"rc", "receiver"});
  // RC corners bind load_r and load_c together, only where load == "rc".
  ParamAxis rc_load;
  rc_load.name = "rc_load";
  rc_load.only_when_param = "load";
  rc_load.only_when_value = std::string("rc");
  rc_load.points.push_back({{{"load_r", 500.0}, {"load_c", 1e-12}}});
  rc_load.points.push_back({{{"load_r", 50.0}, {"load_c", 2e-12}}});
  spec.axis(std::move(rc_load));
  return spec;
}

std::string stripLeadingNewline(const char* golden) {
  return std::string(golden).substr(1);
}

TEST(SweepMigration, TlineLabelsAndOrderingAreUnchanged) {
  const auto tasks = goldenTlineSpec().expand();
  ASSERT_EQ(tasks.size(), std::size(kGoldenTlineLabels));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].index, i);
    EXPECT_EQ(tasks[i].label, kGoldenTlineLabels[i]);
  }
}

TEST(SweepMigration, PcbLabelsAndOrderingAreUnchanged) {
  SweepSpec spec;
  spec.scenario = "pcb";
  spec.axisStrings("pattern", {"01", "010"});
  spec.axis("bit_time", {1e-9, 2e-9});
  spec.axisBool("with_incident", {false, true});
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), std::size(kGoldenPcbLabels));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].index, i);
    EXPECT_EQ(tasks[i].label, kGoldenPcbLabels[i]);
  }
}

TEST(SweepMigration, CsvAndJsonExportsAreByteIdenticalToPreRedesign) {
  SweepRunnerOptions opt;
  opt.workers = 2;  // the goldens were captured with workers=2
  opt.model_cache = testmodels::tinyCache();
  SweepRunner runner(opt);
  const auto result = runner.run(goldenTlineSpec());
  ASSERT_EQ(result.okCount(), result.runs.size());

  const std::string dir = testing::TempDir();
  const std::string csv_path = dir + "migration_pin.csv";
  const std::string json_path = dir + "migration_pin.json";
  writeSweepCsv(result, csv_path);
  writeSweepJson(result, json_path);
  EXPECT_EQ(testmodels::slurp(csv_path), stripLeadingNewline(kGoldenCsv));
  EXPECT_EQ(testmodels::slurp(json_path), stripLeadingNewline(kGoldenJson));
  std::filesystem::remove(csv_path);
  std::filesystem::remove(json_path);
}

}  // namespace
}  // namespace fdtdmm
