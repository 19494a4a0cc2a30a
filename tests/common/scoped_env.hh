/**
 * @file
 * ScopedEnv: set an environment variable for one scope, then restore
 * it (or unset it if it was unset), for tests of the TDC_* readers;
 * expectEnvRejected checks that a reader refuses malformed values.
 */

#ifndef TDC_TESTS_COMMON_SCOPED_ENV_HH
#define TDC_TESTS_COMMON_SCOPED_ENV_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>

namespace tdc
{

/** Sets an environment variable for one scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        if (const char *old = std::getenv(name))
            previous = old;
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (previous)
            setenv(name, previous->c_str(), 1);
        else
            unsetenv(name);
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name;
    std::optional<std::string> previous;
};

/**
 * With @p name set to each of @p values in turn, expect @p read to
 * throw std::invalid_argument whose message quotes the variable and
 * the value.
 */
template <typename Read>
void
expectEnvRejected(const char *name,
                  std::initializer_list<const char *> values, Read read)
{
    for (const char *bad : values) {
        ScopedEnv env(name, bad);
        try {
            read();
            ADD_FAILURE() << name << " accepted \"" << bad << "\"";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(name), std::string::npos) << what;
            EXPECT_NE(what.find("\"" + std::string(bad) + "\""),
                      std::string::npos)
                << what;
        }
    }
}

} // namespace tdc

#endif // TDC_TESTS_COMMON_SCOPED_ENV_HH
