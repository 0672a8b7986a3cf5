// End-to-end test of the Pochoir Guarantee: a Phase-1 program is translated
// by pochoirc, both are compiled with the compiler that builds this suite,
// and both must print bit-identical results — in each loop-indexing mode,
// for a 2D periodic and a 3D Dirichlet program.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int run_cmd(const std::string& cmd) { return std::system(cmd.c_str()); }

class CompilerE2E : public ::testing::Test {
 protected:
  static std::string src_dir() { return POCHOIR_SOURCE_DIR; }
  static std::string pochoirc() { return POCHOIRC_BINARY; }
  static std::string work_dir() {
    static std::string dir = [] {
      std::string d = ::testing::TempDir() + "/pochoirc_e2e";
      run_cmd("mkdir -p " + d);
      return d;
    }();
    return dir;
  }

  static std::string compile_flags() {
    return "-std=c++20 -O0 -I" + src_dir() + "/src -I" + src_dir() +
           "/include " + src_dir() + "/src/runtime/scheduler.cpp -pthread";
  }

  /// Compiles `cpp` to `bin`; returns true on success.
  static bool compile(const std::string& cpp, const std::string& bin) {
    const std::string log = bin + ".log";
    const int rc = run_cmd(std::string(POCHOIR_HOST_CXX) + " " +
                           compile_flags() + " " + cpp + " -o " + bin + " 2> " +
                           log);
    if (rc != 0) {
      ADD_FAILURE() << "compile failed for " << cpp << ":\n" << read_file(log);
    }
    return rc == 0;
  }

  static std::string run_to_string(const std::string& bin) {
    const std::string out = bin + ".out";
    EXPECT_EQ(run_cmd(bin + " > " + out), 0);
    return read_file(out);
  }

  /// Phase 1 and both Phase-2 modes of `fixture` print the same output,
  /// and -split-pointer engages; binaries are named after `tag`.
  static void expect_modes_agree(const std::string& fixture,
                                 const std::string& tag) {
    const std::string dir = work_dir() + "/" + tag;
    run_cmd("mkdir -p " + dir);

    // Phase 1: the untouched source against the template library.
    ASSERT_TRUE(compile(fixture, dir + "/phase1"));
    const std::string phase1 = run_to_string(dir + "/phase1");
    ASSERT_NE(phase1.find("checksum"), std::string::npos);

    // Phase 2, -split-macro-shadow.
    ASSERT_EQ(run_cmd(pochoirc() + " --split-macro-shadow -o " + dir +
                      "/post_macro.cpp " + fixture),
              0);
    ASSERT_TRUE(compile(dir + "/post_macro.cpp", dir + "/phase2_macro"));
    EXPECT_EQ(run_to_string(dir + "/phase2_macro"), phase1);

    // Phase 2, -split-pointer.
    ASSERT_EQ(run_cmd(pochoirc() + " --split-pointer -o " + dir +
                      "/post_split.cpp " + fixture),
              0);
    const std::string post = read_file(dir + "/post_split.cpp");
    EXPECT_NE(post.find("_pochoir_splitbase"), std::string::npos)
        << "split-pointer mode did not engage";
    ASSERT_TRUE(compile(dir + "/post_split.cpp", dir + "/phase2_split"));
    EXPECT_EQ(run_to_string(dir + "/phase2_split"), phase1);
  }
};

TEST_F(CompilerE2E, PhaseOneAndBothPhaseTwoModesAgree) {
  expect_modes_agree(src_dir() + "/tests/fixtures/heat2d_periodic.cpp",
                     "heat2d");
}

// Every 3D base zoid is a boundary zoid (the unit-stride dimension is never
// cut), so here the row clone runs only inside the boundary clone.
TEST_F(CompilerE2E, ThreeDimensionalProgramAgreesInBothModes) {
  expect_modes_agree(src_dir() + "/tests/fixtures/heat3d_dirichlet.cpp",
                     "heat3d");
}

}  // namespace
