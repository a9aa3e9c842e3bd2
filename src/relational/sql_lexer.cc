#include "src/relational/sql_lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace oxml {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Result<std::vector<Token>> LexSql(std::string_view input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();

  auto error = [&](const std::string& msg) {
    return Status::ParseError(msg + " at offset " + std::to_string(i));
  };

  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.offset = i;

    // Blob literal x'ab01'.
    if ((c == 'x' || c == 'X') && i + 1 < n && input[i + 1] == '\'') {
      i += 2;
      std::string bytes;
      while (i < n && input[i] != '\'') {
        int hi = HexDigit(input[i]);
        if (hi < 0 || i + 1 >= n) return error("bad blob literal");
        int lo = HexDigit(input[i + 1]);
        if (lo < 0) return error("bad blob literal");
        bytes.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
      }
      if (i >= n) return error("unterminated blob literal");
      ++i;  // closing quote
      tok.kind = TokenKind::kBlobLiteral;
      tok.text = std::move(bytes);
      tokens.push_back(std::move(tok));
      continue;
    }

    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(input[i])) ++i;
      tok.kind = TokenKind::kIdentifier;
      tok.text = std::string(input.substr(start, i - start));
      tokens.push_back(std::move(tok));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i < n && input[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(input[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
          ++i;
        }
      }
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        size_t save = i;
        ++i;
        if (i < n && (input[i] == '+' || input[i] == '-')) ++i;
        if (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
          is_float = true;
          while (i < n &&
                 std::isdigit(static_cast<unsigned char>(input[i]))) {
            ++i;
          }
        } else {
          i = save;
        }
      }
      std::string text(input.substr(start, i - start));
      if (is_float) {
        tok.kind = TokenKind::kFloatLiteral;
        tok.double_value = std::strtod(text.c_str(), nullptr);
      } else {
        tok.kind = TokenKind::kIntLiteral;
        errno = 0;
        tok.int_value = std::strtoll(text.c_str(), nullptr, 10);
        // strtoll saturates at INT64_MAX; a literal past it is an error,
        // not a silently different number.
        if (errno == ERANGE) return error("integer literal out of range");
      }
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }

    if (c == '\'') {
      ++i;
      std::string value;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {
            value.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        value.push_back(input[i]);
        ++i;
      }
      if (!closed) return error("unterminated string literal");
      tok.kind = TokenKind::kStringLiteral;
      tok.text = std::move(value);
      tokens.push_back(std::move(tok));
      continue;
    }

    // Multi-char operators first.
    auto symbol = [&](std::string_view s) {
      tok.kind = TokenKind::kSymbol;
      tok.text = std::string(s);
      i += s.size();
      tokens.push_back(std::move(tok));
    };
    std::string_view rest = input.substr(i);
    if (rest.substr(0, 2) == "<=" || rest.substr(0, 2) == ">=" ||
        rest.substr(0, 2) == "<>" || rest.substr(0, 2) == "!=") {
      symbol(rest.substr(0, 2));
      continue;
    }
    switch (c) {
      case ',':
      case '(':
      case ')':
      case '.':
      case '*':
      case '+':
      case '-':
      case '/':
      case '%':
      case '=':
      case '<':
      case '>':
      case ';':
      case '?':
        symbol(rest.substr(0, 1));
        continue;
      default:
        return error(std::string("unexpected character '") + c + "'");
    }
  }

  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace oxml
