/* The integer text codec of the MMS, OAF and CMS bodies (see io.py).
 *
 * A body token is [+-]?[0-9]+ within the int64 range; tokens are
 * separated by spaces, tabs and line breaks, and a line break is "\n",
 * "\r\n" or a bare "\r".  A piece of a body is (data, size, cut): data[0]
 * is a separator, the tokens that start before data[cut] end before it,
 * and the bytes from cut on begin the next piece.
 *
 * decode is two calls: check() validates a piece and counts its tokens
 * and line breaks, so that the caller can size the outputs exactly, and
 * parse() fills them.  Every byte below '!' that passes check() is a
 * separator, and every other one belongs to a token.
 */

#include <stddef.h>
#include <stdint.h>

#define BAD_BYTE 1
#define BAD_SIGN 2

static inline unsigned is_digit(unsigned char c)
{
    return (unsigned char)(c - '0') < 10;
}

static inline unsigned is_sign(unsigned char c)
{
    return (c == '+') | (c == '-');
}

/* Whether c breaks a line when next follows it. */
static inline unsigned is_break(unsigned char c, unsigned char next)
{
    return (c == '\n') | ((c == '\r') & (next != '\n'));
}

/* Whether c is a sign without a separator before it or a digit after it. */
static inline unsigned bad_sign(unsigned char prev, unsigned char c, unsigned char next)
{
    return is_sign(c) & ((prev > ' ') | !is_digit(next));
}

/* 0, BAD_BYTE if any byte of data[0, size) is not a digit, sign, space,
 * tab or line break, else BAD_SIGN if a sign in data[0, cut) does not
 * start a token or precede a digit.  On 0, counts[0] is the number of
 * tokens starting in data[0, cut) and counts[1] the number of line
 * breaks there. */
int check(const char *text, size_t size, size_t cut, size_t *counts)
{
    const unsigned char *s = (const unsigned char *)text;
    unsigned char bad = 0;
    for (size_t i = 0; i < size; i++) {
        unsigned char c = s[i];
        /* a sum, not an or: gcc turns a chain of == into a bit test
         * that it cannot vectorize */
        unsigned char ok = is_digit(c) + (c == '+') + (c == '-') + (c == ' ')
                           + ((unsigned char)(c - '\t') < 2) + (c == '\r');
        bad |= ok ^ 1;
    }
    if (bad)
        return BAD_BYTE;
    if (cut > size)
        cut = size;
    size_t tokens = 0, breaks = 0;
    unsigned sign = 0;
    /* the bytes before data[0] and after data[size - 1] count as spaces */
    size_t end = cut < size ? cut : size - 1;
    if (cut) {
        unsigned char next = size > 1 ? s[1] : ' ';
        tokens += s[0] > ' ';
        breaks += is_break(s[0], next);
        sign |= bad_sign(' ', s[0], next);
    } else {
        end = 0;
    }
    for (size_t i = 1; i < end;) {
        /* byte counters, vectorized, for at most 255 bytes at a time */
        size_t stop = end - i > 255 ? i + 255 : end;
        unsigned char t = 0, b = 0, g = 0;
        for (; i < stop; i++) {
            unsigned char prev = s[i - 1], c = s[i], next = s[i + 1];
            t += (prev <= ' ') & (c > ' ');
            b += is_break(c, next);
            g |= bad_sign(prev, c, next);
        }
        tokens += t;
        breaks += b;
        sign |= g;
    }
    if (end && end < cut) {  /* cut == size: the last byte has no successor */
        unsigned char prev = s[end - 1], c = s[end];
        tokens += (prev <= ' ') & (c > ' ');
        breaks += is_break(c, ' ');
        sign |= bad_sign(prev, c, ' ');
    }
    if (sign)
        return BAD_SIGN;
    counts[0] = tokens;
    counts[1] = breaks;
    return 0;
}

/* The exact magnitude of the digits s[first, end) and whether it exceeds
 * limit. */
static unsigned over_limit(const unsigned char *s, size_t first, size_t end,
                           uint64_t limit)
{
    while (first < end && s[first] == '0')
        first++;
    if (end - first > 19)  /* at least 10^19 > 2^63 */
        return 1;
    uint64_t mag = 0;  /* below 10^19 < 2^64 */
    for (size_t i = first; i < end; i++)
        mag = mag * 10 + (s[i] - '0');
    return mag > limit;
}

/* Parse the tokens of a piece that passed check(): values[k] is token k,
 * and lines[j] the number of tokens on line j of the piece (before its
 * first break, between breaks, after its last).  A token outside the
 * int64 range reads as INT64_MAX; the first one's bytes are
 * data[bad[0], bad[1]), and the return value is 1 if there is one, else
 * 0.  At most n_values and n_lines entries are written. */
int parse(const char *text, size_t size, size_t cut, int64_t *values,
          size_t n_values, int64_t *lines, size_t n_lines, size_t *bad)
{
    const unsigned char *s = (const unsigned char *)text;
    size_t v = 0, l = 0, i = 0;
    int64_t on_line = 0;
    int found = 0;
    if (cut > size)
        cut = size;
    while (i < cut) {
        unsigned char c = s[i];
        if (c <= ' ') {
            if (is_break(c, i + 1 < size ? s[i + 1] : ' ')) {
                if (l < n_lines)
                    lines[l] = on_line;
                l++;
                on_line = 0;
            }
            i++;
            continue;
        }
        size_t start = i;
        int neg = c == '-';
        i += is_sign(c);
        size_t first = i;
        uint64_t mag = 0;
        while (i < size && is_digit(s[i]))
            mag = mag * 10 + (s[i++] - '0');
        int64_t value = neg ? (int64_t)(0 - mag) : (int64_t)mag;
        /* up to 18 digits cannot leave the range */
        if (i - first > 18
                && over_limit(s, first, i, neg ? (uint64_t)1 << 63 : ((uint64_t)1 << 63) - 1)) {
            value = INT64_MAX;
            if (!found) {
                bad[0] = start;
                bad[1] = i;
                found = 1;
            }
        }
        if (v < n_values)
            values[v] = value;
        v++;
        on_line++;
    }
    if (l < n_lines)
        lines[l] = on_line;
    return found;
}

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The number of decimal digits of m. */
static inline unsigned width(uint64_t m)
{
    unsigned n = 1;
    while (m >= 10000) {
        m /= 10000;
        n += 4;
    }
    return n + (m >= 10) + (m >= 100) + (m >= 1000);
}

/* Write the decimal digits of m at p; returns the end of the text. */
static inline char *put(uint64_t m, char *p)
{
    char *end = p + width(m);
    char *q = end;
    while (m >= 100) {
        unsigned k = (unsigned)(m % 100) * 2;
        m /= 100;
        q -= 2;
        q[0] = PAIRS[k];
        q[1] = PAIRS[k + 1];
    }
    if (m >= 10) {
        q[-2] = PAIRS[m * 2];
        q[-1] = PAIRS[m * 2 + 1];
    } else {
        q[-1] = (char)('0' + m);
    }
    return end;
}

/* The text of rows x cols int64 entries, row after row: each row's
 * decimal entries joined by single spaces and ended by a newline.  out
 * holds at least rows * max(21 * cols, 1) bytes; returns the bytes
 * written. */
size_t encode(const int64_t *entries, size_t rows, size_t cols, char *out)
{
    char *p = out;
    for (size_t r = 0; r < rows; r++) {
        const int64_t *row = entries + r * cols;
        for (size_t c = 0; c < cols; c++) {
            int64_t x = row[c];
            uint64_t m = (uint64_t)x;
            if (x < 0) {
                *p++ = '-';
                m = 0 - m;  /* exact at INT64_MIN */
            }
            p = put(m, p);
            *p++ = ' ';
        }
        if (cols)
            p--;
        *p++ = '\n';
    }
    return (size_t)(p - out);
}
