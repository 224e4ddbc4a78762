/* The compiled kernels of multimagic, built by _codec.py: the integer
 * text codec of the MMS, OAF and CMS bodies (see io.py), and below it the
 * grid square's rows and the member pass of the large-set and SDLOA
 * checks (see oa.py), the power sums of verify.py, and the bit seen-map
 * that verify.py and oa.py both mark.
 *
 * The text codec.  A body token is [+-]?[0-9]+ within the int64 range;
 * tokens are separated by spaces, tabs and line breaks, and a line break
 * is "\n", "\r\n" or a bare "\r".  A piece of a body is (data, size,
 * cut): data[0] is a separator, the tokens that start before data[cut]
 * end before it, and the bytes from cut on begin the next piece.
 *
 * decode() validates, parses and counts a piece in one pass over its
 * bytes; encode() writes the text of a block of entries.
 */

#include <stddef.h>
#include <stdint.h>

#define BAD_BYTE 1
#define BAD_SIGN 2
#define BAD_RANGE 3

static inline unsigned is_digit(unsigned char c)
{
    return (unsigned char)(c - '0') < 10;
}

static inline unsigned is_sign(unsigned char c)
{
    return (c == '+') | (c == '-');
}

/* Whether c is a digit, sign, space, tab or line break. */
static inline unsigned is_body(unsigned char c)
{
    return is_digit(c) | is_sign(c) | (c == ' ') | ((unsigned char)(c - '\t') < 2) | (c == '\r');
}

/* Whether c breaks a line when next follows it. */
static inline unsigned is_break(unsigned char c, unsigned char next)
{
    return (c == '\n') | ((c == '\r') & (next != '\n'));
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

/* Validate and parse a piece in one pass: values[k] is token k, and
 * lines[j] the number of tokens on line j of the piece (before its first
 * break, between breaks, after its last).  At most n_values and n_lines
 * entries are written; counts[0] and counts[1] are set to the numbers of
 * tokens and lines, whatever the room.  Returns the first that holds of
 *   BAD_BYTE: a byte of data[0, size) is not a digit, sign, space, tab
 *     or line break;
 *   BAD_SIGN: a sign in data[0, cut) does not start a token or precede a
 *     digit;
 *   BAD_RANGE: a token lies outside the int64 range; each such reads as
 *     INT64_MAX, and the first one's bytes are data[counts[2], counts[3]);
 * else 0. */
int decode(const char *text, size_t size, size_t cut, int64_t *values, size_t n_values,
           int64_t *lines, size_t n_lines, size_t *counts)
{
    const unsigned char *s = (const unsigned char *)text;
    size_t v = 0, l = 0, i = 0;
    int64_t on_line = 0;
    unsigned bad = 0, sign = 0, range = 0;
    if (cut > size)
        cut = size;
    while (i < cut) {
        unsigned char c = s[i];
        if (c <= ' ') {  /* a separator or a bad byte */
            if (is_break(c, i + 1 < size ? s[i + 1] : ' ')) {
                if (l < n_lines)
                    lines[l] = on_line;
                l++;
                on_line = 0;
            } else {
                bad |= !is_body(c);
            }
            i++;
            continue;
        }
        /* a run of bytes above ' ': a token, a sign and its digits, then
         * in a bad piece only, more signs, digits and bad bytes */
        size_t start = i;
        int neg = c == '-';
        i += is_sign(c);
        size_t first = i;
        uint64_t mag = 0;
        while (i < size && is_digit(s[i]))
            mag = mag * 10 + (s[i++] - '0');
        sign |= i == first;  /* no digit: a lone sign, or a bad byte */
        int64_t value = neg ? (int64_t)(0 - mag) : (int64_t)mag;
        /* up to 18 digits cannot leave the range */
        if (i - first > 18
                && over_limit(s, first, i, neg ? (uint64_t)1 << 63 : ((uint64_t)1 << 63) - 1)) {
            value = INT64_MAX;
            if (!range) {
                counts[2] = start;
                counts[3] = i;
                range = 1;
            }
        }
        if (v < n_values)
            values[v] = value;
        v++;
        on_line++;
        for (; i < size && s[i] > ' '; i++) {
            bad |= !is_digit(s[i]) & !is_sign(s[i]);
            sign |= is_sign(s[i]) & (i < cut);
        }
    }
    if (l < n_lines)
        lines[l] = on_line;
    for (; i < size; i++)
        bad |= !is_body(s[i]);
    counts[0] = v;
    counts[1] = l + 1;
    return bad ? BAD_BYTE : sign ? BAD_SIGN : range ? BAD_RANGE : 0;
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

/* ---------------------------------------------------------------------
 * The rows of a grid's square (see oa._GridStack.codes).
 *
 * Entry (r, c) of the square, at out[(r - r0) * n + c] for r0 <= r < r1
 * and c < n, is the base-q code of the cell of grid row r and column c,
 * component 0 least significant: the sum over i < k of
 * table[a[r * k + i] + b[c * k + i]] * q^i, the member pass's code of
 * column c of member r.  Components are read two at a time, through
 * pairs = (k + 1) / 2 index rows: pair p of column c is
 * index[p * n + c] = b[c * k + 2p] * q + b[c * k + 2p + 1], or
 * b[c * k + k - 1] for a last odd component.  For each row, one table of
 * q^2 partial codes per pair maps the pair's index to its share of the
 * code, so an entry takes one lookup per pair, after the row paid pairs
 * tables of q^2 <= n entries: no more than the row itself.  work holds
 * pairs * q^2 int64 entries.  The caller checks that k >= 1, that every
 * entry of b lies in 0..q-1, that a[r * k + i] + q - 1 indexes the
 * table, and that q^k < 2^63.
 * ------------------------------------------------------------------- */

void grid_rows(const int16_t *table, const int64_t *a, size_t k, int64_t q,
               const int32_t *index, size_t n, size_t r0, size_t r1, int64_t *work,
               int64_t *out)
{
    const size_t pairs = (k + 1) / 2, qq = (size_t)(q * q);
    for (size_t r = r0; r < r1; r++) {
        const int64_t *ar = a + r * k;
        int64_t low = 1;  /* q^(2p) */
        for (size_t p = 0; p < pairs; p++) {
            int64_t *part = work + p * qq;
            const int16_t *lo = table + ar[2 * p];
            if (2 * p + 1 < k) {
                const int16_t *hi = table + ar[2 * p + 1];
                for (int64_t x = 0; x < q; x++)
                    for (int64_t y = 0; y < q; y++)
                        part[x * q + y] = (lo[x] + hi[y] * q) * low;
            } else {
                for (int64_t x = 0; x < q; x++)
                    part[x] = lo[x] * low;
            }
            if (p + 1 < pairs)  /* q^k < 2^63, but q^(k + 1) may not be */
                low *= q * q;
        }
        /* the shares are added two pairs a pass over the row, the first
         * pass storing one pair, or two if their count is even */
        int64_t *row = out + (r - r0) * n;
        size_t p = 2 - pairs % 2;
        if (p == 1)
            for (size_t c = 0; c < n; c++)
                row[c] = work[index[c]];
        else
            for (size_t c = 0; c < n; c++)
                row[c] = work[index[c]] + work[qq + (size_t)index[n + c]];
        for (; p < pairs; p += 2) {
            const int32_t *at = index + p * n, *next = at + n;
            const int64_t *part = work + p * qq, *after = part + qq;
            for (size_t c = 0; c < n; c++)
                row[c] += part[at[c]] + after[next[c]];
        }
    }
}

/* ---------------------------------------------------------------------
 * The member pass of the large-set and SDLOA checks (see oa.py).
 *
 * A block holds members first..last-1 of a stack of members, each k x n
 * over the symbols 0..v-1, read in place through byte strides: entry
 * (m, i, j) is the int64 at byte (m - first) * sm + i * si + j * sj of
 * data.  ref is member 0 of the stack, laid out with the same strides si
 * and sj; it need not lie in the block.  For each member m of the block
 * and each of its columns j, members():
 *   - writes codes[(m - first) * n + j], the block's own codes: the
 *     column's base-v code, row 0 least significant, when every entry of
 *     the column lies in 0..v-1, so that code < v^k, and -1 otherwise;
 *     the caller marks them in its coverage bit map (see mark() below);
 *   - if rows, clears rows_ok[m] unless entry (m, i, j) equals
 *     rows[(m * k + i) * v + ref entry (i, j)] for every i: member m is
 *     then member 0 with each row i relabelled by the images in rows;
 *   - if cols, clears cols_ok[j] (relaxed atomic) unless entry (m, i, j)
 *     equals cols[(j * k + i) * v + entry (m, i, 0)] for every i: column
 *     slab j (entry (i, m) = entry (m, i, j)) is then column slab 0 with
 *     each row relabelled by the images in cols.
 * An entry outside 0..v-1 clears rows_ok[m] and cols_ok[j] and makes its
 * column's code -1.
 * The caller passes rows only if member 0, and cols only if column 0 of
 * every member, lies in 0..v-1, so that every table index is in bounds,
 * and needs v^k < 2^63, so that k <= MAX_ROWS.
 * ------------------------------------------------------------------- */

#define MAX_ROWS 63

static inline int64_t entry(const char *data, ptrdiff_t at)
{
    return *(const int64_t *)(data + at);
}

void members(const void *data, const void *ref, ptrdiff_t sm, ptrdiff_t si, ptrdiff_t sj,
             size_t first, size_t last, size_t k, size_t n, int64_t v, const int64_t *rows,
             unsigned char *rows_ok, const int64_t *cols, unsigned char *cols_ok,
             int64_t *codes)
{
    const uint64_t uv = (uint64_t)v;
    const ptrdiff_t table = (ptrdiff_t)k * v;
    ptrdiff_t col0[MAX_ROWS];
    uint64_t power[MAX_ROWS];
    power[0] = 1;
    for (size_t i = 1; i < k; i++)
        power[i] = power[i - 1] * uv;
    for (size_t m = first; m < last; m++) {
        const char *member = (const char *)data + (ptrdiff_t)(m - first) * sm;
        const int64_t *img = rows ? rows + (ptrdiff_t)m * table : NULL;
        if (cols)  /* indices of column slab 0's symbols in the tables */
            for (size_t i = 0; i < k; i++)
                col0[i] = (ptrdiff_t)i * v + entry(member, (ptrdiff_t)i * si);
        unsigned bad = 0;
        for (size_t j = 0; j < n; j++) {
            const ptrdiff_t jo = (ptrdiff_t)j * sj;
            const int64_t *cimg = cols ? cols + (ptrdiff_t)j * table : NULL;
            uint64_t code = 0;
            unsigned out = 0, rbad = 0, cbad = 0;
            for (size_t i = 0; i < k; i++) {
                const ptrdiff_t at = jo + (ptrdiff_t)i * si;
                int64_t x = entry(member, at);
                out |= (uint64_t)x >= uv;
                code += (uint64_t)x * power[i];
                if (rows)
                    rbad |= x != img[(ptrdiff_t)i * v + entry(ref, at)];
                if (cols)
                    cbad |= x != cimg[col0[i]];
            }
            codes[(m - first) * n + j] = out ? -1 : (int64_t)code;
            if (cols && (cbad | out))
                __atomic_store_n(cols_ok + j, 0, __ATOMIC_RELAXED);
            bad |= rbad | out;
        }
        if (rows && bad)
            rows_ok[m] = 0;
    }
}

/* ---------------------------------------------------------------------
 * The power sums of verify.py, and the bit seen-map of verify.py's
 * consecutive-entry check and of oa.py's coverage check.
 *
 * sums() reads a block of rows x n int64 entries, rows r0..r0+rows-1 of
 * an n x n square, as values x = entry - base, wrapping modulo 2^64.
 * Modulus 0 is 2^64; modulus j >= 1 is the odd odd[j - 1] < 2^31.  For
 * each degree e = 1..top and each modulus j < needs[e - 1], it writes the
 * residues of the block's power sums at k = needs[0] + ... + needs[e - 2]
 * + j: the row sums at rows_out[k * rows + r], the column partials at
 * cols_out[k * n + c], and the partials of the main and back diagonals,
 * whose entries in row r are at columns r0 + r and n - 1 - r0 - r, at
 * diag[k] and back[k].  Modulo 2^64 the powers and the sums wrap.  Modulo
 * an odd m, x is reduced to [0, m) if reduce[j - 1], and must else lie
 * there already; x^e = x^(e-1) * x mod m, a product below 2^62 reduced
 * by Barrett's method, so every power is below 2^31 and a sum of n of
 * them is exact in int64 for n < 2^32.  These are the residues of
 * tests/sums_oracle.py, exactly.  lohi receives the least and the
 * greatest x.  work holds 2 n scratch entries.  Arithmetic is unsigned,
 * so values outside [0, m) that were not reduced give wrong residues but
 * no undefined behaviour: the caller discards them.
 *
 * mark() marks bit v of the seen-map bits for each value v = entry - base
 * of count entries that lies in [0, limit), and returns how many bits it
 * set that were clear.  It is not atomic: one thread marks a map, the
 * calling thread, as the pooled blocks of entries (verify.py) or of
 * column codes (oa.py) arrive.
 * ------------------------------------------------------------------- */

/* p mod m, for p < 2^62 and odd m < 2^31, with mu = (2^64 - 1) / m: the
 * quotient estimate is low by at most one, so one correction suffices. */
static inline uint64_t barrett(uint64_t p, uint64_t m, uint64_t mu)
{
    uint64_t r = p - (uint64_t)(((unsigned __int128)p * mu) >> 64) * m;
    return r >= m ? r - m : r;
}

void sums(const int64_t *block, size_t rows, size_t n, size_t r0, int64_t base,
          const uint64_t *odd, size_t count, const unsigned char *reduce, size_t top,
          const size_t *needs, uint64_t *work, int64_t *rows_out, int64_t *cols_out,
          int64_t *diag, int64_t *back, int64_t *lohi)
{
    uint64_t *x = work, *p = work + n;
    uint64_t *cols = (uint64_t *)cols_out;
    size_t total = 0;
    for (size_t e = 0; e < top; e++)
        total += needs[e];
    for (size_t k = 0; k < total * n; k++)
        cols[k] = 0;
    for (size_t k = 0; k < total; k++)
        diag[k] = back[k] = 0;
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (size_t r = 0; r < rows; r++) {
        const int64_t *row = block + r * n;
        const size_t at_main = r0 + r, at_back = n - 1 - r0 - r;
        for (size_t j = 0; j <= count; j++) {
            const uint64_t m = j ? odd[j - 1] : 0, mu = j ? UINT64_MAX / m : 0;
            if (j == 0) {
                for (size_t c = 0; c < n; c++) {
                    int64_t v = (int64_t)((uint64_t)row[c] - (uint64_t)base);
                    lo = v < lo ? v : lo;
                    hi = v > hi ? v : hi;
                    x[c] = (uint64_t)v;
                }
            } else if (reduce[j - 1]) {
                for (size_t c = 0; c < n; c++) {
                    int64_t v = (int64_t)((uint64_t)row[c] - (uint64_t)base) % (int64_t)m;
                    x[c] = (uint64_t)(v < 0 ? v + (int64_t)m : v);
                }
            } else {
                for (size_t c = 0; c < n; c++)
                    x[c] = (uint64_t)row[c] - (uint64_t)base;
            }
            size_t k = j;  /* the output row of degree e and modulus j */
            for (size_t e = 1; e <= top; e++) {
                if (e == 1)
                    for (size_t c = 0; c < n; c++)
                        p[c] = x[c];
                else if (j == 0)
                    for (size_t c = 0; c < n; c++)
                        p[c] *= x[c];
                else
                    for (size_t c = 0; c < n; c++)
                        p[c] = barrett(p[c] * x[c], m, mu);
                if (j < needs[e - 1]) {
                    uint64_t s = 0, *col = cols + k * n;
                    for (size_t c = 0; c < n; c++) {
                        s += p[c];
                        col[c] += p[c];
                    }
                    rows_out[k * rows + r] = (int64_t)s;
                    diag[k] = (int64_t)((uint64_t)diag[k] + p[at_main]);
                    back[k] = (int64_t)((uint64_t)back[k] + p[at_back]);
                }
                k += needs[e - 1];
            }
        }
    }
    lohi[0] = lo;
    lohi[1] = hi;
}

size_t mark(const int64_t *entries, size_t count, int64_t base, uint64_t limit,
            unsigned char *bits)
{
    size_t fresh = 0;
    for (size_t i = 0; i < count; i++) {
        uint64_t v = (uint64_t)entries[i] - (uint64_t)base;
        if (v < limit) {
            unsigned char bit = (unsigned char)(1u << (v & 7));
            fresh += !(bits[v >> 3] & bit);
            bits[v >> 3] |= bit;
        }
    }
    return fresh;
}
