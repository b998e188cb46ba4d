// Telemetry-internal text sink: the exporters (Perfetto JSON, Prometheus
// text) format into one fixed buffer with std::to_chars and hand it to the
// caller's std::ostream each time it fills past kChunk bytes, so an export
// never stages the whole file and never touches iostream formatting. The
// buffer lives inside the sink, which the exporters keep on their stack:
// an export makes no heap allocation of its own, and its memory is already
// resident after the first one.
//
// real() reproduces `os << v` at precision 15 with the default floatfield
// byte for byte: libstdc++ formats that with "%.*g", and
// std::to_chars(chars_format::general, 15) is specified as printf's %.15g in
// the C locale (inf/-inf/nan spelled the same). Integral values with
// |v| < 1e15 have at most 15 digits, for which %.15g prints exactly the
// integer's digits; they take the integer path. -0.0 does not ("-0").
#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string_view>

namespace ioguard::telemetry {

class TextSink {
 public:
  static constexpr std::size_t kChunk = 64 * 1024;

  explicit TextSink(std::ostream& os) : os_(os) {}
  TextSink(const TextSink&) = delete;
  TextSink& operator=(const TextSink&) = delete;

  /// Appends `s` verbatim.
  TextSink& lit(std::string_view s) {
    if (s.size() > kSlack) {
      flush();
      os_.write(s.data(), static_cast<std::streamsize>(s.size()));
      return *this;
    }
    std::memcpy(room(), s.data(), s.size());
    len_ += s.size();
    return *this;
  }

  TextSink& ch(char c) {
    *room() = c;
    ++len_;
    return *this;
  }

  /// Appends the decimal form of `v`, as `os << v` prints it.
  template <std::integral T>
  TextSink& integer(T v) {
    char* p = room();
    len_ = static_cast<std::size_t>(std::to_chars(p, p + kNumberRoom, v).ptr -
                                    buf_.data());
    return *this;
  }

  /// Appends `v` exactly as `os << std::setprecision(15) << v` prints it.
  TextSink& real(double v) {
    if (v > -1e15 && v < 1e15) {
      const auto i = static_cast<std::int64_t>(v);
      if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v)))
        return integer(i);
    }
    char* p = room();
    len_ = static_cast<std::size_t>(
        std::to_chars(p, p + kNumberRoom, v, std::chars_format::general, 15)
            .ptr -
        buf_.data());
    return *this;
  }

  /// Appends `s` escaped for the inside of a JSON string literal: quote,
  /// backslash, \n and \t by name, other control bytes as \u00XX.
  TextSink& escaped(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    for (const char c : s) {
      switch (c) {
        case '"': lit("\\\""); break;
        case '\\': lit("\\\\"); break;
        case '\n': lit("\\n"); break;
        case '\t': lit("\\t"); break;
        default: {
          const auto u = static_cast<unsigned char>(c);
          if (u >= 0x20) {
            ch(c);
          } else {
            const char esc[] = {'\\', 'u',          '0',
                                '0',  kHex[u >> 4], kHex[u & 0xf]};
            lit({esc, sizeof esc});
          }
        }
      }
    }
    return *this;
  }

  /// Hands everything buffered to the stream. The exporters call it last;
  /// write errors surface in the stream's state, as with `os <<`.
  void flush() {
    if (len_ == 0) return;
    os_.write(buf_.data(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  /// Enough for any integer or %.15g double (at most 23 chars).
  static constexpr std::size_t kNumberRoom = 32;
  /// Headroom past kChunk, so an append of up to kSlack bytes never splits.
  static constexpr std::size_t kSlack = 256;

  /// Returns the write position for an append of at most kSlack bytes,
  /// flushing first once the buffer has reached kChunk.
  char* room() {
    if (len_ >= kChunk) flush();
    return buf_.data() + len_;
  }

  std::ostream& os_;
  std::array<char, kChunk + kSlack> buf_{};
  std::size_t len_ = 0;
};

}  // namespace ioguard::telemetry
