// hh-lint fixture for float-accumulation: accumulate integers and
// convert once; a floating-point running sum rounds order-sensitively.

double
unstableSum(const double *values, int count)
{
    double acc = 0.0;
    for (int i = 0; i < count; ++i)
        acc += values[i];       // expect: float-accumulation
    return acc;
}

unsigned long
integerSumsAreFine(const unsigned long *values, int count)
{
    unsigned long total = 0;
    for (int i = 0; i < count; ++i)
        total += values[i];
    return total;
}
