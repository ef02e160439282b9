// The QLEC_* environment knob accessors (util/env.hpp).
#include <cstdlib>

#include <gtest/gtest.h>

#include "util/env.hpp"

namespace qlec {
namespace {

// Scoped setenv so a failing assertion can't leak state into other tests.
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvVar() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(Env, FlagSemantics) {
  ::unsetenv("QLEC_TEST_FLAG");
  EXPECT_FALSE(env::flag("QLEC_TEST_FLAG"));
  {
    EnvVar v("QLEC_TEST_FLAG", "1");
    EXPECT_TRUE(env::flag("QLEC_TEST_FLAG"));
  }
  {
    EnvVar v("QLEC_TEST_FLAG", "0");  // explicit off
    EXPECT_FALSE(env::flag("QLEC_TEST_FLAG"));
  }
  {
    EnvVar v("QLEC_TEST_FLAG", "");
    EXPECT_FALSE(env::flag("QLEC_TEST_FLAG"));
  }
  {
    EnvVar v("QLEC_TEST_FLAG", "yes");
    EXPECT_TRUE(env::flag("QLEC_TEST_FLAG"));
  }
}

TEST(Env, PositiveIntParsesAndFallsBack) {
  ::unsetenv("QLEC_TEST_INT");
  EXPECT_EQ(env::positive_int("QLEC_TEST_INT", 7), 7);
  {
    EnvVar v("QLEC_TEST_INT", "12");
    EXPECT_EQ(env::positive_int("QLEC_TEST_INT", 7), 12);
  }
  {
    EnvVar v("QLEC_TEST_INT", "0");  // counts must be positive
    EXPECT_EQ(env::positive_int("QLEC_TEST_INT", 7), 7);
  }
  {
    EnvVar v("QLEC_TEST_INT", "-3");
    EXPECT_EQ(env::positive_int("QLEC_TEST_INT", 7), 7);
  }
  {
    EnvVar v("QLEC_TEST_INT", "notanumber");
    EXPECT_EQ(env::positive_int("QLEC_TEST_INT", 7), 7);
  }
}

TEST(Env, StrReturnsFallbackWhenUnset) {
  ::unsetenv("QLEC_TEST_STR");
  EXPECT_EQ(env::str("QLEC_TEST_STR", "dflt"), "dflt");
  EXPECT_EQ(env::str("QLEC_TEST_STR"), "");
  EnvVar v("QLEC_TEST_STR", "path/to/file");
  EXPECT_EQ(env::str("QLEC_TEST_STR", "dflt"), "path/to/file");
}

TEST(Env, BenchSeedsHonorsOverrideThenFastThenDefault) {
  ::unsetenv("QLEC_BENCH_SEEDS");
  ::unsetenv("QLEC_BENCH_FAST");
  EXPECT_EQ(env::bench_seeds(5), 5u);
  {
    EnvVar fast("QLEC_BENCH_FAST", "1");
    EXPECT_EQ(env::bench_seeds(5), 2u);  // fast mode shrinks the default
    EnvVar seeds("QLEC_BENCH_SEEDS", "9");
    EXPECT_EQ(env::bench_seeds(5), 9u);  // explicit count wins over fast
  }
  EXPECT_EQ(env::bench_seeds(3), 3u);
}

}  // namespace
}  // namespace qlec
