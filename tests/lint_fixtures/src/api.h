#ifndef DWMAXERR_API_H_
#define DWMAXERR_API_H_
using namespace std;  // using-namespace
float Scale();        // no-float
#endif  // DWMAXERR_API_H_
