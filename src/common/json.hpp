/**
 * @file
 * A minimal JSON value type with a deterministic writer and a strict
 * parser.
 *
 * Serialization is the single source of truth for every machine-read
 * artifact the repo emits (RunReport / FleetReport snapshots, the
 * observability metrics export): objects preserve insertion order,
 * doubles render via std::to_chars shortest round-trip, and there is
 * no locale or platform dependence — equal values always serialize to
 * byte-identical text, which is what lets CI diff JSON artifacts
 * across thread counts.
 */

#ifndef RAP_COMMON_JSON_HPP
#define RAP_COMMON_JSON_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rap {

/** Escape @p s for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * One JSON value (null / bool / number / string / array / object).
 *
 * Objects keep keys in insertion order; set() replaces an existing
 * key in place so re-serialization stays stable.
 */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() = default;
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double v) : type_(Type::Number), number_(v) {}
    Json(int v) : Json(static_cast<double>(v)) {}
    Json(std::int64_t v) : Json(static_cast<double>(v)) {}
    Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
    Json(const char *s) : Json(std::string(s)) {}

    /** @return An empty array value. */
    static Json array();

    /** @return An empty object value. */
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool() const;
    double asDouble() const;
    const std::string &asString() const;

    /** Array: append one element. */
    void push(Json value);

    /** Object: set @p key (replacing in place when present). */
    void set(const std::string &key, Json value);

    /** @return Array/object element count (0 for scalars). */
    std::size_t size() const;

    /** Array: element @p i (panics when out of range). */
    const Json &at(std::size_t i) const;

    /** Object: value of @p key, or nullptr when absent. */
    const Json *find(const std::string &key) const;

    /** Object: value of @p key (panics when absent). */
    const Json &at(const std::string &key) const;

    /** Object: members in insertion order. */
    const std::vector<std::pair<std::string, Json>> &members() const;

    /** Array: elements in order. */
    const std::vector<Json> &elements() const;

    /**
     * Serialize deterministically. @p indent < 0 renders compact
     * single-line JSON; >= 0 pretty-prints with that many spaces per
     * nesting level (and a trailing newline at top level when pretty).
     */
    std::string dump(int indent = -1) const;

    /**
     * Parse @p text strictly (one value, whole input consumed). On
     * failure returns null and stores a message in @p error when
     * non-null.
     */
    static Json parse(const std::string &text,
                      std::string *error = nullptr);

  private:
    void write(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

/** Read a whole file into a Json value; fatal on I/O or parse error. */
Json readJsonFile(const std::string &path);

/** Write @p value to @p path (pretty, indent 2); fatal on I/O error. */
void writeJsonFile(const Json &value, const std::string &path);

} // namespace rap

#endif // RAP_COMMON_JSON_HPP
