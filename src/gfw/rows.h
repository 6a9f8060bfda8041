// Row tables: a struct's members declared once, as {name, member pointer}
// rows, so code that must visit every member walks the table instead of
// naming fields. Each walker declares the tables it walks: gfw/scenario.h
// every value a Scenario can set, for scenario_fingerprint, and
// gfw/checkpoint.cpp every journaled record in wire order, for the
// journal codec. A skip row is a member the fingerprint leaves out on
// purpose; a type without a table is a leaf.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string_view>
#include <tuple>
#include <type_traits>

namespace gfwsim::gfw {

template <typename S, typename T, bool Mixed = true>
struct Row {
  static constexpr bool mixed = Mixed;
  const char* name;
  T S::*member;
};

template <typename S>
inline constexpr auto kRows = std::tuple<>{};
template <typename S>
concept HasRows = std::tuple_size_v<std::remove_cvref_t<decltype(kRows<S>)>> != 0;

// Leaf kinds for the walkers of the tables: is T an instance of Of
// (std::optional, std::vector, std::map, ...)?
template <typename T, template <typename...> class Of>
inline constexpr bool kIs = false;
template <template <typename...> class Of, typename... Args>
inline constexpr bool kIs<Of<Args...>, Of> = true;
template <typename T>
inline constexpr bool kIsArray = false;
template <typename T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

namespace detail {
// S{AnyMember x N} is valid exactly while N <= S's member count.
struct AnyMember {
  template <typename T>
  operator T() const;
};
template <typename S, typename... Members>
constexpr std::size_t member_count() {
  if constexpr (requires { S{Members{}..., AnyMember{}}; }) {
    return member_count<S, Members..., AnyMember>();
  }
  return sizeof...(Members);
}
// No two rows of a table name the same member.
template <typename Rows>
constexpr bool distinct_rows(const Rows& rows) {
  return std::apply(
      [](const auto&... row) {
        const std::string_view names[] = {row.name...};
        return std::ranges::all_of(
            names, [&](std::string_view n) { return std::ranges::count(names, n) == 1; });
      },
      rows);
}
}  // namespace detail

// Calls f(row) for each row of S's table, in table order.
template <typename S, typename F>
constexpr void for_each_row(F&& f) {
  std::apply([&](const auto&... row) { (f(row), ...); }, kRows<S>);
}

// GFWSIM_ROWS(S, rows...) declares S's table; a row's name is its
// member's. Its static_asserts are the tripwire: a member added to S
// without a row (or a skip row), or a member listed twice, fails the
// build.
#define GFWSIM_ROWS(Type, ...)                                                      \
  template <>                                                                       \
  inline constexpr auto kRows<Type> = [] {                                          \
    using S = Type;                                                                 \
    constexpr std::tuple rows{__VA_ARGS__};                                         \
    static_assert(detail::distinct_rows(rows), "a member of " #Type " has two rows"); \
    static_assert(std::tuple_size_v<decltype(rows)> == detail::member_count<S>(),   \
                  "every member of " #Type " needs a row");                         \
    return rows;                                                                    \
  }()
#define GFWSIM_ROW(m) Row{#m, &S::m}
#define GFWSIM_SKIP(m) Row<S, decltype(S::m), false>{#m, &S::m}

}  // namespace gfwsim::gfw
